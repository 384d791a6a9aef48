//go:build !linux

package main

import "time"

// pacer falls back to the runtime's timers, which may run up to a
// millisecond late on an idle process; gen.late_* reports how late.
func pacer() (sleep func(time.Duration), release func()) {
	return time.Sleep, func() {}
}
