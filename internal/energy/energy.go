// Package energy models the two smartphones of the paper's testbed
// (Table 1) closely enough to reproduce the power results of Section 6.3:
// per-cipher encryption throughput and per-packet overhead (which set both
// the encryption-time component of the delay model and the CPU energy),
// and a Monsoon-style meter that integrates idle, CPU-crypto and
// radio-transmit power over a stream and reports average Watts, including
// the uAh-to-Watt conversion of Eq. (29).
//
// The profiles are calibrated, not measured: the numbers are typical of
// 2011-class ARM Cortex-A9 / Snapdragon S3 software crypto (no AES
// instructions) and are chosen so the paper's orderings hold — AES128 ~
// AES256 << 3DES cost, none < I-only << P-only < all power, and large
// savings from I-only encryption. DESIGN.md documents this substitution.
package energy

import (
	"fmt"

	"repro/internal/stats"
	"repro/internal/vcrypt"
)

// Profile describes one device's crypto speed and power behaviour.
type Profile struct {
	Name string

	// ThroughputBps is sustained single-core encryption throughput in
	// bytes/second per algorithm.
	ThroughputBps map[vcrypt.Algorithm]float64
	// PerPacketOverhead is the fixed per-packet cost in seconds (buffer
	// management, IV setup, JNI-boundary crossing in the original app).
	PerPacketOverhead map[vcrypt.Algorithm]float64

	// IdlePower is the screen-on, radio-idle baseline in Watts.
	IdlePower float64
	// CPUActivePower is the *additional* power drawn while a core runs
	// the encryption loop.
	CPUActivePower float64
	// TxPower is the additional power drawn while the WiFi radio
	// transmits.
	TxPower float64
}

// SamsungGalaxySII returns the profile of the paper's first device
// (1.2 GHz dual-core Cortex-A9).
func SamsungGalaxySII() Profile {
	return Profile{
		Name: "Samsung Galaxy S-II",
		ThroughputBps: map[vcrypt.Algorithm]float64{
			vcrypt.AES128:    12e6,
			vcrypt.AES256:    9e6,
			vcrypt.TripleDES: 1.6e6,
			// CTR keystreams are feedback-free, so the blocks pipeline
			// and the per-packet setup is cheaper (no chained block at
			// the boundary). The paced sender encrypts each frame inside
			// its pacing wait, before the frame is due, so that cost
			// stays off the release path.
			vcrypt.AES128CTR: 21e6,
			vcrypt.AES256CTR: 16e6,
		},
		PerPacketOverhead: map[vcrypt.Algorithm]float64{
			vcrypt.AES128:    200e-6,
			vcrypt.AES256:    220e-6,
			vcrypt.TripleDES: 350e-6,
			vcrypt.AES128CTR: 120e-6,
			vcrypt.AES256CTR: 130e-6,
		},
		IdlePower:      0.45,
		CPUActivePower: 2.0,
		TxPower:        0.5,
	}
}

// HTCAmaze4G returns the profile of the second device (1.5 GHz dual-core
// Snapdragon S3): a faster CPU, so encryption penalties are flatter, as in
// Figs. 8 and 11.
func HTCAmaze4G() Profile {
	return Profile{
		Name: "HTC Amaze 4G",
		ThroughputBps: map[vcrypt.Algorithm]float64{
			vcrypt.AES128:    17e6,
			vcrypt.AES256:    13e6,
			vcrypt.TripleDES: 2.3e6,
			vcrypt.AES128CTR: 30e6,
			vcrypt.AES256CTR: 23e6,
		},
		PerPacketOverhead: map[vcrypt.Algorithm]float64{
			vcrypt.AES128:    150e-6,
			vcrypt.AES256:    165e-6,
			vcrypt.TripleDES: 260e-6,
			vcrypt.AES128CTR: 90e-6,
			vcrypt.AES256CTR: 100e-6,
		},
		IdlePower:      0.55,
		CPUActivePower: 1.2,
		TxPower:        0.5,
	}
}

// ModernARMv8 returns a present-day phone profile: an ARMv8 core with the
// AES instruction-set extension, where block-cipher throughput is two
// orders of magnitude above the 2011 software loops and the fixed
// per-packet cost shrinks to syscall/JNI noise. It is not a paper testbed
// device (Devices excludes it); it exists to answer ROADMAP item 2's
// question — once encryption is nearly free, does "encrypt everything"
// dominate selective encryption? 3DES has no hardware path and stays slow.
func ModernARMv8() Profile {
	return Profile{
		Name: "Modern ARMv8 (AES ext)",
		ThroughputBps: map[vcrypt.Algorithm]float64{
			vcrypt.AES128:    900e6,
			vcrypt.AES256:    700e6,
			vcrypt.TripleDES: 9e6,
			// CTR pipelines across the AES units (no feedback chain),
			// OFB cannot; this is the one place the gap is large.
			vcrypt.AES128CTR: 2.4e9,
			vcrypt.AES256CTR: 1.8e9,
		},
		PerPacketOverhead: map[vcrypt.Algorithm]float64{
			vcrypt.AES128:    6e-6,
			vcrypt.AES256:    6e-6,
			vcrypt.TripleDES: 40e-6,
			vcrypt.AES128CTR: 4e-6,
			vcrypt.AES256CTR: 4e-6,
		},
		IdlePower:      0.35,
		CPUActivePower: 1.0,
		TxPower:        0.45,
	}
}

// Devices returns both testbed profiles.
func Devices() []Profile { return []Profile{SamsungGalaxySII(), HTCAmaze4G()} }

// EncryptTime returns the modelled time to encrypt one packet of the given
// payload size.
func (p Profile) EncryptTime(alg vcrypt.Algorithm, payloadBytes int) (float64, error) {
	tp, ok := p.ThroughputBps[alg]
	if !ok || tp <= 0 {
		return 0, fmt.Errorf("energy: %s has no throughput for %v", p.Name, alg)
	}
	if payloadBytes < 0 {
		return 0, fmt.Errorf("energy: negative payload")
	}
	return p.PerPacketOverhead[alg] + float64(payloadBytes)/tp, nil
}

// EncryptTimeStats returns the mean and standard deviation of the
// per-packet encryption time over a size class, the (mu, sigma) inputs of
// Eq. (15).
func (p Profile) EncryptTimeStats(alg vcrypt.Algorithm, sizes []int) (mean, sigma float64, err error) {
	if len(sizes) == 0 {
		return 0, 0, fmt.Errorf("energy: empty size class")
	}
	ts := make([]float64, len(sizes))
	for i, s := range sizes {
		t, err := p.EncryptTime(alg, s)
		if err != nil {
			return 0, 0, err
		}
		ts[i] = t
	}
	return stats.Mean(ts), stats.StdDev(ts), nil
}

// Meter integrates energy over a transfer, mirroring the Monsoon power
// monitor attached to the phones.
type Meter struct {
	profile Profile

	cryptoSeconds float64
	txSeconds     float64
	totalEnergyJ  float64
	extraJ        float64
}

// NewMeter starts a measurement for the device.
func NewMeter(p Profile) *Meter { return &Meter{profile: p} }

// AddCrypto records t seconds of encryption work.
func (m *Meter) AddCrypto(t float64) {
	if t < 0 {
		panic("energy: negative crypto time")
	}
	m.cryptoSeconds += t
}

// AddTx records t seconds of radio transmission.
func (m *Meter) AddTx(t float64) {
	if t < 0 {
		panic("energy: negative tx time")
	}
	m.txSeconds += t
}

// AddEnergy records an extra energy draw in Joules (e.g. TCP
// retransmission processing).
func (m *Meter) AddEnergy(j float64) {
	if j < 0 {
		panic("energy: negative energy")
	}
	m.extraJ += j
}

// AveragePower returns the mean power in Watts over a stream of the given
// duration: baseline plus duty-cycled CPU and radio components. duration
// must cover the busy periods recorded.
func (m *Meter) AveragePower(duration float64) (float64, error) {
	if duration <= 0 {
		return 0, fmt.Errorf("energy: non-positive duration")
	}
	if m.cryptoSeconds > duration*1.0001 || m.txSeconds > duration*1.0001 {
		return 0, fmt.Errorf("energy: busy time (crypto %.3fs, tx %.3fs) exceeds duration %.3fs",
			m.cryptoSeconds, m.txSeconds, duration)
	}
	energy := m.profile.IdlePower*duration +
		m.profile.CPUActivePower*m.cryptoSeconds +
		m.profile.TxPower*m.txSeconds +
		m.extraJ
	m.totalEnergyJ = energy
	return energy / duration, nil
}

// EnergyJoules returns the last integrated energy (valid after
// AveragePower).
func (m *Meter) EnergyJoules() float64 { return m.totalEnergyJ }

// MicroAmpHoursToWatts converts a Monsoon reading in uAh over a stream
// duration (seconds) at the given supply voltage into average Watts —
// Eq. (29) of the paper: v * Voltage * 3600 * 1e-6 / duration.
func MicroAmpHoursToWatts(uah, voltage, duration float64) (float64, error) {
	if duration <= 0 {
		return 0, fmt.Errorf("energy: non-positive duration")
	}
	return uah * voltage * 3600e-6 / duration, nil
}

// PaperSupplyVoltage is the 3.9 V supply the paper's monitor used.
const PaperSupplyVoltage = 3.9
