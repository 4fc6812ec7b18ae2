// Package proto implements the coherence protocol engine of a node's CMMU:
// the hardware home-side state machine over the limited directory, the
// processor-side cache controller, the message fabric connecting them, and
// the interface through which the hardware invokes protocol extension
// software.
//
// The paper's spectrum of software-extended protocols (Section 2) is
// expressed as a Spec: how many pointers the hardware implements, how
// acknowledgments are collected, whether the one-bit local pointer exists,
// and whether overflow falls back to software directory extension
// (LimitLESS), broadcast (Dir1SW-style), or an all-software directory.
package proto

import (
	"errors"
	"fmt"
)

// AckMode selects how invalidation acknowledgments are collected after a
// software-extended write fault, distinguishing the paper's three
// one-pointer protocols (Section 2.4).
type AckMode int

const (
	// AckHW counts every acknowledgment in hardware and sends the data
	// from hardware (S_NB with no A field).
	AckHW AckMode = iota
	// AckLACK counts all but the last acknowledgment in hardware; the
	// last one traps to software, which transmits the data (S_NB,LACK).
	AckLACK
	// AckSW traps to software on every acknowledgment (S_NB,ACK); the
	// hardware pointer is unused during the invalidation process.
	AckSW
)

func (m AckMode) String() string {
	switch m {
	case AckHW:
		return ""
	case AckLACK:
		return "LACK"
	case AckSW:
		return "ACK"
	}
	return fmt.Sprintf("ackmode(%d)", int(m))
}

// Spec describes one point on the protocol spectrum in the paper's
// Dir_i H_X S_Y,A notation.
type Spec struct {
	// Name is the Dir_iH_XS_Y,A rendering, e.g. "DirnH5SNB".
	Name string
	// HWPointers is the hardware directory pointer capacity per block
	// (X). Ignored when FullMap is set.
	HWPointers int
	// FullMap gives every block n pointers and never traps (Dir_nH_NB S_-).
	FullMap bool
	// LocalBit enables Alewife's one-bit pointer for the home node.
	LocalBit bool
	// AckMode selects acknowledgment handling for software-extended
	// writes.
	AckMode AckMode
	// Broadcast marks the Dir_1H_1S_B family: instead of extending the
	// directory in software, reads beyond the pointer capacity set a
	// broadcast bit and writes invalidate every node.
	Broadcast bool
	// SoftwareOnly marks Dir_nH_0: no hardware pointers, a per-block
	// remote-access bit, and software handling of every inter-node (and,
	// once the bit is set, intra-node) access.
	SoftwareOnly bool
}

// UsesSoftware reports whether the protocol ever invokes extension
// software.
func (s Spec) UsesSoftware() bool { return !s.FullMap }

// PointerCapacity returns the hardware pointer capacity for a machine of n
// nodes: n for full-map, HWPointers otherwise.
func (s Spec) PointerCapacity(n int) int {
	if s.FullMap {
		return n
	}
	return s.HWPointers
}

// ErrSpec flags a Spec whose fields do not describe a protocol: Validate
// wraps it with what is wrong.
var ErrSpec = errors.New("proto: invalid protocol spec")

// Validate reports configuration errors (for example a broadcast protocol
// with zero pointers), wrapping ErrSpec.
func (s Spec) Validate() error {
	switch {
	case s.FullMap && (s.SoftwareOnly || s.Broadcast):
		return fmt.Errorf("%w: %s: full-map excludes other modes", ErrSpec, s.Name)
	case s.SoftwareOnly && s.HWPointers != 0:
		return fmt.Errorf("%w: %s: software-only directory must have 0 pointers", ErrSpec, s.Name)
	case s.SoftwareOnly && s.LocalBit:
		return fmt.Errorf("%w: %s: software-only directory has no local bit", ErrSpec, s.Name)
	case s.Broadcast && s.HWPointers < 1:
		return fmt.Errorf("%w: %s: broadcast protocol needs a hardware pointer", ErrSpec, s.Name)
	case !s.FullMap && !s.SoftwareOnly && s.HWPointers < 0:
		return fmt.Errorf("%w: %s: negative pointer count", ErrSpec, s.Name)
	}
	return nil
}

// FullMap returns the Dir_nH_NB S_- protocol: the DASH-style full-map
// directory that serves as the performance goal for the spectrum.
func FullMap() Spec {
	return Spec{Name: "DirnHNBS-", FullMap: true, LocalBit: true}
}

// LimitLESS returns Dir_nH_kS_NB for k >= 2: k hardware pointers, software
// directory extension, hardware acknowledgment counting.
func LimitLESS(k int) Spec {
	return Spec{
		Name:       fmt.Sprintf("DirnH%dSNB", k),
		HWPointers: k,
		LocalBit:   true,
		AckMode:    AckHW,
	}
}

// OnePointer returns the Dir_nH_1S_NB{,LACK,ACK} variant selected by mode.
func OnePointer(mode AckMode) Spec {
	name := "DirnH1SNB"
	if s := mode.String(); s != "" {
		name += "," + s
	}
	return Spec{
		Name:       name,
		HWPointers: 1,
		LocalBit:   true,
		AckMode:    mode,
	}
}

// SoftwareOnly returns Dir_nH_0S_NB,ACK: the software-only directory
// architecture with the remote-access bit optimization.
func SoftwareOnly() Spec {
	return Spec{
		Name:         "DirnH0SNB,ACK",
		SoftwareOnly: true,
		AckMode:      AckSW,
	}
}

// Dir1SW returns Dir_1H_1S_B,LACK: the cooperative-shared-memory protocol
// of Hill et al., with one explicit pointer, software broadcast
// invalidations, hardware acknowledgment counting, and a trap on the last
// acknowledgment.
func Dir1SW() Spec {
	return Spec{
		Name:       "Dir1H1SB,LACK",
		HWPointers: 1,
		LocalBit:   true,
		AckMode:    AckLACK,
		Broadcast:  true,
	}
}

// Spectrum returns the protocols of the paper's main evaluation (Figures 2
// and 4) in increasing hardware-cost order.
func Spectrum() []Spec {
	return []Spec{
		SoftwareOnly(),
		OnePointer(AckSW),
		OnePointer(AckLACK),
		OnePointer(AckHW),
		LimitLESS(2),
		LimitLESS(3),
		LimitLESS(4),
		LimitLESS(5),
		FullMap(),
	}
}
