package transport

import "sync/atomic"

// CountLandings counts every RecvInto that completes from now until the
// returned stop is called, which uninstalls the count and reports how many
// frames landed off the socket and how many came through a pooled payload.
func CountLandings() (stop func() (landed, pooled int64)) {
	var l, p atomic.Int64
	hook := func(landed bool) {
		if landed {
			l.Add(1)
		} else {
			p.Add(1)
		}
	}
	landHook.Store(&hook)
	return func() (int64, int64) {
		landHook.Store(nil)
		return l.Load(), p.Load()
	}
}
