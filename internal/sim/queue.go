package sim

// Server models a resource that serializes work items: a CMMU transmit or
// receive queue, a memory bank, or the processor executing trap handlers.
// NWO models communication contention at the CMMU network queues (but not
// inside the network switches); Server is the primitive that implements
// that queueing discipline.
//
// A Server hands out start times: Reserve(now, dur) returns the cycle at
// which a request arriving at cycle now may begin service, reserving the
// resource for dur cycles from that point. Requests are served in
// reservation order (FIFO), which is deterministic because the engine
// fires events deterministically.
type Server struct {
	freeAt Cycle // first cycle at which the resource is idle

	// Waited accumulates cycles spent queued (start - arrival).
	Waited Cycle
}

// Reserve books the server for dur cycles for a request arriving at now,
// and returns the cycle at which service starts.
func (s *Server) Reserve(now Cycle, dur Cycle) (start Cycle) {
	start = now
	if s.freeAt > start {
		start = s.freeAt
	}
	s.Waited += start - now
	s.freeAt = start + dur
	return start
}

// FreeAt reports the cycle at which the server next becomes idle.
func (s *Server) FreeAt() Cycle { return s.freeAt }

// Reset clears the server's schedule and statistics.
func (s *Server) Reset() { *s = Server{} }

// Fresh returns a server with this one's schedule and zeroed statistics:
// the state a copied machine carries forward.
func (s *Server) Fresh() Server { return Server{freeAt: s.freeAt} }
