package ampere

import (
	"math/rand"

	"repro/internal/dpu"
	"repro/internal/imagenet"
	"repro/internal/rsa"
	"repro/internal/virus"
)

// PowerVirus is the 160k-instance stress bitstream of the Fig. 2
// characterization (victim side).
type PowerVirus = virus.Array

// DeployPowerVirus places the default power-virus array (160 groups of
// 1,000 instances, spread over every clock region) on the board's
// fabric and returns the runtime activation handle.
func DeployPowerVirus(b *Board) (*PowerVirus, error) {
	array, err := virus.New(virus.Config{})
	if err != nil {
		return nil, err
	}
	if err := array.Deploy(b.Fabric()); err != nil {
		return nil, err
	}
	return array, nil
}

// DPU is the deployed deep-learning accelerator (victim side).
type DPU = dpu.Engine

// DeployDPU places a B4096-class DPU on the board's fabric, wired to a
// synthetic ImageNet query stream and the board's CPU/DDR load inputs.
// Load a zoo model with LoadModel to start inference.
func DeployDPU(b *Board) (*DPU, error) {
	queries, err := imagenet.New(b.Engine().Stream("queries"))
	if err != nil {
		return nil, err
	}
	engine, err := dpu.NewEngine(dpu.EngineConfig{
		Queries:        queries,
		SetCPUFullUtil: b.CPUFull().SetUtil,
		SetCPULowUtil:  b.CPULow().SetUtil,
		SetDDRUtil:     b.DDR().SetUtil,
	})
	if err != nil {
		return nil, err
	}
	if err := b.Fabric().Place(engine, b.Fabric().SpreadEvenly()); err != nil {
		return nil, err
	}
	return engine, nil
}

// LoadZooModel builds the named zoo model, and only that one, and loads
// it onto a deployed DPU. Each call builds a fresh model.
func LoadZooModel(d *DPU, name string) error {
	m, err := dpu.ZooModel(name)
	if err != nil {
		return err
	}
	return d.LoadModel(m)
}

// RSACircuit is the deployed RSA-1024 exponentiation engine (victim
// side).
type RSACircuit = rsa.Circuit

// DeployRSA generates a random 1024-bit key with the given Hamming
// weight, embeds it in an RSA-1024 square-and-multiply circuit at
// 100 MHz, and places the circuit on the board's fabric. The circuit
// continuously encrypts random plaintexts, like the paper's victim.
func DeployRSA(b *Board, hammingWeight int, seed int64) (*RSACircuit, error) {
	rng := rand.New(rand.NewSource(seed))
	exponent, err := rsa.ExponentWithHammingWeight(1024, hammingWeight, rng)
	if err != nil {
		return nil, err
	}
	modulus, err := rsa.Modulus(1024, rng)
	if err != nil {
		return nil, err
	}
	circuit, err := rsa.NewCircuit(rsa.CircuitConfig{
		Exponent: exponent,
		Modulus:  modulus,
		Rand:     b.Engine().Stream("rsa-plaintexts"),
	})
	if err != nil {
		return nil, err
	}
	if err := b.Fabric().Place(circuit, b.Fabric().SpreadEvenly()); err != nil {
		return nil, err
	}
	return circuit, nil
}
