package sim

// callFunc is the handler of the closure-form test helpers: the closure
// rides in the event's argument word (boxing a func value does not
// allocate).
func callFunc(arg any, _ int64) { arg.(func())() }

// schedule runs fn after delay: ScheduleCall with a closure, the form the
// tests script events in.
func (e *Engine) schedule(delay Time, fn func()) { e.ScheduleCall(delay, callFunc, fn, 0) }

// at runs fn at absolute time t: AtCall with a closure.
func (e *Engine) at(t Time, fn func()) { e.AtCall(t, callFunc, fn, 0) }
