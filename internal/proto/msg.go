package proto

import (
	"fmt"

	"swex/internal/mem"
)

// MsgKind enumerates the protocol message types the CMMU synthesizes.
type MsgKind int

const (
	// MsgRREQ is a read request from a cache to a block's home.
	MsgRREQ MsgKind = iota
	// MsgWREQ is a write (or upgrade) request from a cache to the home.
	MsgWREQ
	// MsgRDATA carries a read-only copy from home to cache.
	MsgRDATA
	// MsgWDATA grants exclusive ownership (with data) to a writer.
	MsgWDATA
	// MsgINV asks a cache to invalidate its copy.
	MsgINV
	// MsgACK acknowledges an invalidation (the copy was clean or absent).
	MsgACK
	// MsgUPDATE acknowledges an invalidation of a dirty copy, carrying
	// the data home.
	MsgUPDATE
	// MsgBUSY tells a requester to retry: the home is mid-transaction on
	// the block. Busy messages are the hardware's livelock defense
	// during acknowledgment collection (paper Section 2.4).
	MsgBUSY
	// MsgWB writes a dirty evicted line back to the home unsolicited.
	MsgWB
	// MsgREL relinquishes a clean shared copy: the programmer's
	// "check-in" directive (the CICO annotations of the cooperative
	// shared memory work, paper Sections 1 and 7) tells the home to
	// retire the sender's pointer so later writes invalidate less.
	MsgREL
	numMsgKinds
)

var msgNames = [numMsgKinds]string{
	"RREQ", "WREQ", "RDATA", "WDATA", "INV", "ACK", "UPDATE", "BUSY", "WB", "REL",
}

func (k MsgKind) String() string {
	if k < 0 || k >= numMsgKinds {
		return fmt.Sprintf("msg(%d)", int(k))
	}
	return msgNames[k]
}

// CarriesEpoch reports whether the message's Epoch field is meaningful:
// invalidations carry the issuing transaction's epoch out, and the
// acknowledgments they provoke echo it back so the home can discard ones
// addressed to an earlier transaction. Every other kind leaves Epoch at
// zero and nothing ever reads it.
func (k MsgKind) CarriesEpoch() bool {
	switch k {
	case MsgINV, MsgACK, MsgUPDATE:
		return true
	case MsgRREQ, MsgWREQ, MsgRDATA, MsgWDATA, MsgBUSY, MsgWB, MsgREL:
		return false
	default:
		panic(fmt.Sprintf("proto: unknown message kind %d", int(k)))
	}
}

// CarriesData reports whether the message includes the block contents.
func (k MsgKind) CarriesData() bool {
	switch k {
	case MsgRDATA, MsgWDATA, MsgUPDATE, MsgWB:
		return true
	case MsgRREQ, MsgWREQ, MsgINV, MsgACK, MsgBUSY, MsgREL:
		return false
	default:
		panic(fmt.Sprintf("proto: unknown message kind %d", int(k)))
	}
}

// ToHome reports whether the message is processed by the home-side
// controller (as opposed to the cache side).
func (k MsgKind) ToHome() bool {
	switch k {
	case MsgRREQ, MsgWREQ, MsgACK, MsgUPDATE, MsgWB, MsgREL:
		return true
	case MsgRDATA, MsgWDATA, MsgINV, MsgBUSY:
		return false
	default:
		panic(fmt.Sprintf("proto: unknown message kind %d", int(k)))
	}
}

// Msg is one protocol message in flight.
type Msg struct {
	Kind  MsgKind
	Src   mem.NodeID
	Dst   mem.NodeID
	Block mem.Block
	// Words carries the block contents for data messages.
	Words [mem.WordsPerBlock]uint64
	// Epoch tags invalidations with the home transaction that issued
	// them; ACK and UPDATE replies echo it so the home can discard
	// acknowledgments that belong to a completed transaction (the
	// writeback/invalidate crossing race).
	Epoch uint32
}

// RMWKind enumerates the atomic read-modify-write operations.
type RMWKind uint8

const (
	// RMWNone marks a plain access.
	RMWNone RMWKind = iota
	// RMWSwap stores Arg (an atomic exchange).
	RMWSwap
	// RMWAdd adds Arg (fetch-and-add; a wrapped Arg subtracts).
	RMWAdd
	// RMWTestAndSet stores Arg only if the word is zero.
	RMWTestAndSet
	// RMWMin stores Arg only if it is below the word.
	RMWMin
)

// RMW is one atomic read-modify-write operation, as data: the kind and
// its argument fully determine the new value, so operations can be
// compared, copied and fingerprinted.
type RMW struct {
	Kind RMWKind
	Arg  uint64
}

// Apply returns the word's new value given its old one.
func (r RMW) Apply(old uint64) uint64 {
	switch r.Kind {
	case RMWSwap:
		return r.Arg
	case RMWAdd:
		return old + r.Arg
	case RMWTestAndSet:
		if old == 0 {
			return r.Arg
		}
		return old
	case RMWMin:
		if r.Arg < old {
			return r.Arg
		}
		return old
	case RMWNone:
		panic("proto: applying RMWNone")
	default:
		panic("proto: unknown RMW kind")
	}
}

func (m Msg) String() string {
	return fmt.Sprintf("%s %d->%d blk=%d ep=%d", m.Kind, m.Src, m.Dst, m.Block, m.Epoch)
}
