package telemetry

import (
	"bufio"
	"encoding/json"
	"io"

	"halsim/internal/telemetry/prof"
)

// WriteProfTrace exports the parallel engine's flight recorder as a Chrome
// trace-event document: one lane per LP (pid 2) whose spans are the
// executed plan windows, named after the peer that capped each window.
// Everything written is deterministic: window spans and binders are
// simulation state, never wall clock. The output is
// per-shard-count by construction: it describes the engine, not the
// simulation.
func WriteProfTrace(w io.Writer, r *prof.Recorder) error {
	// profPid keeps the recorder's LP lanes apart from the packet lanes
	// WriteTrace emits (pid 1).
	const profPid = 2

	doc := chromeTrace{DisplayTimeUnit: "ns"}
	for i := 0; i < r.NumLanes(); i++ {
		name := "lp:" + r.LaneName(i)
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: "thread_name", Cat: "__metadata", Ph: "M",
			Pid: profPid, Tid: i,
			Args: chromeArgs{Name: &name},
		})
		lane := r.LaneAt(i)
		for _, win := range lane.Windows {
			d := us(win.End - win.Start)
			doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
				Name: windowName(r, win.Binder), Cat: "window", Ph: "X",
				Ts: us(win.Start), Dur: &d, Pid: profPid, Tid: i,
				Args: profWinArgs{Binder: binderLabel(r, win.Binder)},
			})
		}
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(doc); err != nil {
		return err
	}
	return bw.Flush()
}

// profWinArgs is a window span's payload: what bounded the window.
type profWinArgs struct {
	Binder string `json:"binder"`
}

// windowName labels a window span by its binder class.
func windowName(r *prof.Recorder, binder int) string {
	switch {
	case binder >= 0:
		return "win:" + r.LaneName(binder)
	case binder == prof.BindSelf:
		return "win:self"
	default:
		return "win:round"
	}
}

// binderLabel names a window's binder for the args payload.
func binderLabel(r *prof.Recorder, binder int) string {
	switch {
	case binder >= 0:
		return r.LaneName(binder)
	case binder == prof.BindSelf:
		return "self-echo"
	default:
		return "round-end"
	}
}
