package stats

// RateMeter measures an event/byte rate over fixed windows, mirroring the
// traffic monitor in the paper: a counter is incremented on every
// observation and sampled/reset every window. Rates are reported in units
// per second of simulated time.
type RateMeter struct {
	windowNS int64
	count    int64 // accumulating in the open window
	lastRate float64
}

// NewRateMeter returns a meter with the given sampling window in
// nanoseconds. A 10µs window matches the paper's traffic-monitor period.
func NewRateMeter(windowNS int64) RateMeter {
	if windowNS <= 0 {
		panic("stats: non-positive rate meter window")
	}
	return RateMeter{windowNS: windowNS}
}

// Add accumulates n units (bytes, packets) into the open window.
func (m *RateMeter) Add(n int64) { m.count += n }

// Roll closes the current window and returns the rate observed in it, in
// units per second. Call it once per window from a periodic event.
func (m *RateMeter) Roll() float64 {
	m.lastRate = float64(m.count) / (float64(m.windowNS) / 1e9)
	m.count = 0
	return m.lastRate
}

// Rate returns the most recently closed window's rate (0 before the first
// Roll).
func (m *RateMeter) Rate() float64 { return m.lastRate }
