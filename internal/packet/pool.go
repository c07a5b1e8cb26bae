package packet

// Pool is a deterministic per-run packet free-list. The simulation engine
// is single-threaded by design, so the pool needs no locking and — unlike
// sync.Pool — its reuse order is a pure LIFO function of the event
// sequence: the same run always hands out the same Packet structs in the
// same order, preserving bit-identical replays.
//
// Ownership rule: whoever retires a packet from the dataplane releases it —
// the completion path after the response is built, the drop paths (ring
// tail-drop, fault drop, rehome failure), and the client-side response
// delivery. A released packet must not be touched again; Put detaches the
// payload and banks its buffer for GetBuf, so generator buffers are
// recycled rather than pinned by pooled packets.
type Pool struct {
	free []*Packet
	// bufs retains payload buffers of released packets for GetBuf. Reuse
	// order is pure LIFO, so it is as deterministic as the packet
	// free-list; generators fully overwrite the buffers they take, so
	// stale contents never leak into a run.
	bufs [][]byte

	// News, Reused and Released count pool traffic: News is how many
	// packets were heap-allocated, Reused how many Gets were served from
	// the free-list, Released how many Puts were accepted. They make leak
	// diagnosis cheap: a steady-state run should have News bounded by its
	// peak in-flight population.
	News     uint64
	Reused   uint64
	Released uint64
}

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// Get returns a zeroed packet initialized like New, reusing a released one
// when available. A nil pool degrades to plain allocation, so components
// built without pooling (unit tests, one-off tools) keep working.
func (pl *Pool) Get(src, dst Addr, srcPort, dstPort uint16, payload []byte) *Packet {
	if pl == nil {
		return New(src, dst, srcPort, dstPort, payload)
	}
	var p *Packet
	if n := len(pl.free); n > 0 {
		p = pl.free[n-1]
		pl.free[n-1] = nil
		pl.free = pl.free[:n-1]
		pl.Reused++
	} else {
		p = &Packet{}
		pl.News++
	}
	p.init(src, dst, srcPort, dstPort, payload)
	return p
}

// GetBuf returns a retired payload buffer (length zero, capacity whatever
// the donor packet carried), or nil when none is banked. Request generators
// feed it to their NextInto methods so steady-state payload generation
// reuses the buffers of completed packets instead of allocating.
func (pl *Pool) GetBuf() []byte {
	if pl == nil {
		return nil
	}
	n := len(pl.bufs)
	if n == 0 {
		return nil
	}
	b := pl.bufs[n-1]
	pl.bufs[n-1] = nil
	pl.bufs = pl.bufs[:n-1]
	return b
}

// Put releases p back to the pool. Releasing nil is a no-op. The caller
// must hold the only live reference; use-after-release is a correctness
// bug (the struct will be recycled for a future packet).
func (pl *Pool) Put(p *Packet) {
	if pl == nil || p == nil {
		return
	}
	if cap(p.Payload) > 0 {
		pl.bufs = append(pl.bufs, p.Payload[:0])
	}
	p.Payload = nil
	pl.free = append(pl.free, p)
	pl.Released++
}

// Live returns how many packets obtained from the pool have not been
// released (a leak indicator when a drained run should have returned all).
func (pl *Pool) Live() int64 {
	return int64(pl.News+pl.Reused) - int64(pl.Released)
}
