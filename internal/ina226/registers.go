package ina226

import (
	"fmt"
	"math"
	"time"
)

// Register is an INA226 register pointer (datasheet Table 3).
type Register uint8

// The device's register map.
const (
	RegConfig         Register = 0x00
	RegShuntVoltage   Register = 0x01
	RegBusVoltage     Register = 0x02
	RegPower          Register = 0x03
	RegCurrent        Register = 0x04
	RegCalibration    Register = 0x05
	RegMaskEnable     Register = 0x06
	RegAlertLimit     Register = 0x07
	RegManufacturerID Register = 0xFE
	RegDieID          Register = 0xFF
)

// Identification constants (datasheet sections 7.6.8/7.6.9).
const (
	// ManufacturerID is "TI" in ASCII.
	ManufacturerID = 0x5449
	// DieID identifies the INA226 die.
	DieID = 0x2260
)

// Configuration register fields (datasheet 7.6.1).
const (
	cfgResetBit  = 15
	cfgAvgShift  = 9 // AVG[2:0]
	cfgVBusShift = 6 // VBUSCT[2:0]
	cfgVShShift  = 3 // VSHCT[2:0]
	cfgModeMask  = 0x7
	// cfgDefault is the power-on value: 1 average, 1.1 ms conversions,
	// continuous shunt+bus mode.
	cfgDefault = 0x4127
)

// avgCounts maps AVG[2:0] to the averaging count.
var avgCounts = []int{1, 4, 16, 64, 128, 256, 512, 1024}

// convTimes maps VBUSCT/VSHCT[2:0] to the per-conversion time.
var convTimes = []time.Duration{
	140 * time.Microsecond, 204 * time.Microsecond, 332 * time.Microsecond,
	588 * time.Microsecond, 1100 * time.Microsecond, 2116 * time.Microsecond,
	4156 * time.Microsecond, 8244 * time.Microsecond,
}

// Mask/Enable register bits (datasheet 7.6.7).
const (
	// AlertShuntOver triggers on shunt voltage over the limit.
	AlertShuntOver uint16 = 1 << 15
	// AlertShuntUnder triggers on shunt voltage under the limit.
	AlertShuntUnder uint16 = 1 << 14
	// AlertBusOver triggers on bus voltage over the limit.
	AlertBusOver uint16 = 1 << 13
	// AlertBusUnder triggers on bus voltage under the limit.
	AlertBusUnder uint16 = 1 << 12
	// AlertPowerOver triggers on the power register over the limit.
	AlertPowerOver uint16 = 1 << 11
	// AlertFunctionFlag is set by the device when the selected alert
	// condition was met at the last conversion.
	AlertFunctionFlag uint16 = 1 << 4
)

// ReadRegister reads a register over the (simulated) I2C interface.
func (d *Device) ReadRegister(r Register) (uint16, error) {
	d.sync()
	switch r {
	case RegConfig:
		return d.configReg, nil
	case RegShuntVoltage:
		return uint16(int16(d.shuntReg)), nil
	case RegBusVoltage:
		return uint16(int16(d.busReg)), nil
	case RegPower:
		return uint16(d.powerReg), nil
	case RegCurrent:
		return uint16(int16(d.currentReg)), nil
	case RegCalibration:
		return d.cal, nil
	case RegMaskEnable:
		return d.maskEnable, nil
	case RegAlertLimit:
		return d.alertLimit, nil
	case RegManufacturerID:
		return ManufacturerID, nil
	case RegDieID:
		return DieID, nil
	default:
		return 0, fmt.Errorf("ina226 %s: read of unknown register 0x%02X", d.label, uint8(r))
	}
}

// WriteRegister writes a register over the (simulated) I2C interface.
// Only the writable registers of the real device accept writes.
func (d *Device) WriteRegister(r Register, v uint16) error {
	d.sync()
	switch r {
	case RegConfig:
		if v&(1<<cfgResetBit) != 0 {
			d.reset()
			return nil
		}
		d.configReg = v
		d.applyConfig()
		return nil
	case RegCalibration:
		if v == 0 {
			return fmt.Errorf("ina226 %s: zero calibration", d.label)
		}
		d.cal = v
		// CAL = 0.00512/(CurrentLSB*Rshunt)  =>  CurrentLSB follows CAL.
		d.currentLSB = 0.00512 / (float64(v) * d.shuntOhms)
		return nil
	case RegMaskEnable:
		// The alert-function flag is read-only; writes clear it.
		d.maskEnable = v &^ AlertFunctionFlag
		return nil
	case RegAlertLimit:
		d.alertLimit = v
		return nil
	case RegShuntVoltage, RegBusVoltage, RegPower, RegCurrent,
		RegManufacturerID, RegDieID:
		return fmt.Errorf("ina226 %s: register 0x%02X is read-only", d.label, uint8(r))
	default:
		return fmt.Errorf("ina226 %s: write to unknown register 0x%02X", d.label, uint8(r))
	}
}

// reset restores the power-on state (datasheet RST bit behaviour).
func (d *Device) reset() {
	d.configReg = cfgDefault
	d.maskEnable = 0
	d.alertLimit = 0
	d.shuntReg, d.busReg, d.currentReg, d.powerReg = 0, 0, 0, 0
	d.accShunt, d.accBus, d.accTime, d.syncTime = 0, 0, 0, 0
	d.applyConfig()
}

// applyConfig derives the effective conversion interval from the
// averaging count and conversion times, clamped to the hwmon driver's
// [2 ms, 35 ms] update window (the range the paper reports).
func (d *Device) applyConfig() {
	avg := avgCounts[(d.configReg>>cfgAvgShift)&0x7]
	ctBus := convTimes[(d.configReg>>cfgVBusShift)&0x7]
	ctShunt := convTimes[(d.configReg>>cfgVShShift)&0x7]
	interval := time.Duration(avg) * (ctBus + ctShunt)
	if interval < MinUpdateInterval {
		interval = MinUpdateInterval
	}
	if interval > MaxUpdateInterval {
		interval = MaxUpdateInterval
	}
	d.interval = interval
}

// Averages returns the configured averaging count.
func (d *Device) Averages() int {
	return avgCounts[(d.configReg>>cfgAvgShift)&0x7]
}

// evaluateAlert updates the alert-function flag after a latch.
func (d *Device) evaluateAlert() {
	limit := d.alertLimit
	var fire bool
	switch {
	case d.maskEnable&AlertShuntOver != 0:
		fire = d.shuntReg > int32(int16(limit))
	case d.maskEnable&AlertShuntUnder != 0:
		fire = d.shuntReg < int32(int16(limit))
	case d.maskEnable&AlertBusOver != 0:
		fire = d.busReg > int32(limit)
	case d.maskEnable&AlertBusUnder != 0:
		fire = d.busReg < int32(limit)
	case d.maskEnable&AlertPowerOver != 0:
		fire = d.powerReg > int32(limit)
	default:
		d.maskEnable &^= AlertFunctionFlag
		return
	}
	if fire {
		d.maskEnable |= AlertFunctionFlag
	} else {
		d.maskEnable &^= AlertFunctionFlag
	}
}

// Alert reports whether the alert function fired at the last latch.
func (d *Device) Alert() bool { d.sync(); return d.maskEnable&AlertFunctionFlag != 0 }

// ShuntLimitFromAmps converts a current bound into an alert-limit
// register value for the shunt-voltage alert functions.
func (d *Device) ShuntLimitFromAmps(amps float64) uint16 {
	return uint16(int16(math.Round(amps * d.shuntOhms / ShuntLSB)))
}
