// Package soe models the Secure Operating Environment of the target
// architecture (section 2) and the performance evaluation methodology of
// section 7. The paper measures a C prototype on a cycle-accurate smart-card
// simulator provided by Axalto; that hardware simulator is not available, so
// this package substitutes an analytical cost model fed by exact volume
// accounting: every byte entering the SOE (communication), every byte
// decrypted or hashed inside it, and every token operation of the
// access-control evaluator is counted by the lower layers and converted to
// time using the constants of Table 1. Because the paper itself shows the
// execution time is dominated by communication and decryption volumes, the
// ratios the evaluation section reports (BF vs TCSBR vs LWB, integrity
// overhead, throughput ordering across datasets) are preserved.
//
// The package also implements the three evaluation strategies compared in
// Figures 9-12: BF (brute force, no index), TCSBR (the Skip-index pipeline)
// and LWB (the unreachable oracle lower bound).
package soe

import "fmt"

// CostProfile is one row of Table 1 plus the CPU characteristics used to
// convert access-control work into time.
type CostProfile struct {
	// Name identifies the profile ("hardware", "software-internet",
	// "software-lan").
	Name string
	// CommBytesPerSec is the bandwidth between the terminal and the SOE.
	CommBytesPerSec float64
	// DecryptBytesPerSec is the Triple-DES decryption throughput inside the
	// SOE.
	DecryptBytesPerSec float64
	// HashBytesPerSec is the SHA-1 throughput inside the SOE.
	HashBytesPerSec float64
	// CPUHz is the SOE processor frequency; CyclesPerTokenOp converts
	// access-control token operations into cycles.
	CPUHz            float64
	CyclesPerTokenOp float64
}

// HardwareSmartCard is the "hardware based (e.g., future smartcards)" row of
// Table 1: a 32-bit smart card at 40 MHz with a 1 MB/s USB link (0.5 MB/s
// effective) and hardwired 3DES at 0.15 MB/s.
func HardwareSmartCard() CostProfile {
	return CostProfile{
		Name:               "hardware",
		CommBytesPerSec:    0.5 * 1024 * 1024,
		DecryptBytesPerSec: 0.15 * 1024 * 1024,
		HashBytesPerSec:    2 * 1024 * 1024,
		CPUHz:              40e6,
		CyclesPerTokenOp:   60,
	}
}

// SoftwareInternet is the "software based - Internet connection" row of
// Table 1: SOE code on the client CPU (1 GHz), document fetched at
// 0.1 MB/s.
func SoftwareInternet() CostProfile {
	return CostProfile{
		Name:               "software-internet",
		CommBytesPerSec:    0.1 * 1024 * 1024,
		DecryptBytesPerSec: 1.2 * 1024 * 1024,
		HashBytesPerSec:    100 * 1024 * 1024,
		CPUHz:              1e9,
		CyclesPerTokenOp:   60,
	}
}

// SoftwareLAN is the "software based - LAN connection" row of Table 1.
func SoftwareLAN() CostProfile {
	return CostProfile{
		Name:               "software-lan",
		CommBytesPerSec:    10 * 1024 * 1024,
		DecryptBytesPerSec: 1.2 * 1024 * 1024,
		HashBytesPerSec:    100 * 1024 * 1024,
		CPUHz:              1e9,
		CyclesPerTokenOp:   60,
	}
}

// Profiles returns the three rows of Table 1.
func Profiles() []CostProfile {
	return []CostProfile{HardwareSmartCard(), SoftwareInternet(), SoftwareLAN()}
}

// CostBreakdown decomposes an execution time estimate the way Figure 9 does.
type CostBreakdown struct {
	CommunicationSeconds float64
	DecryptionSeconds    float64
	AccessControlSeconds float64
	IntegritySeconds     float64
}

// Total returns the total estimated execution time.
func (c CostBreakdown) Total() float64 {
	return c.CommunicationSeconds + c.DecryptionSeconds + c.AccessControlSeconds + c.IntegritySeconds
}

// String renders the breakdown for reports.
func (c CostBreakdown) String() string {
	return fmt.Sprintf("total %.3fs (comm %.3fs, decrypt %.3fs, access control %.3fs, integrity %.3fs)",
		c.Total(), c.CommunicationSeconds, c.DecryptionSeconds, c.AccessControlSeconds, c.IntegritySeconds)
}

// Breakdown converts volumes (bytes communicated, decrypted, hashed, and
// access-control token operations) into an execution-time estimate under
// this profile.
func (p CostProfile) Breakdown(commBytes, decryptBytes, hashBytes, tokenOps int64) CostBreakdown {
	var b CostBreakdown
	if p.CommBytesPerSec > 0 {
		b.CommunicationSeconds = float64(commBytes) / p.CommBytesPerSec
	}
	if p.DecryptBytesPerSec > 0 {
		b.DecryptionSeconds = float64(decryptBytes) / p.DecryptBytesPerSec
	}
	if p.HashBytesPerSec > 0 {
		b.IntegritySeconds = float64(hashBytes) / p.HashBytesPerSec
	}
	if p.CPUHz > 0 {
		b.AccessControlSeconds = float64(tokenOps) * p.CyclesPerTokenOp / p.CPUHz
	}
	return b
}
