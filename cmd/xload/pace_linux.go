package main

import (
	"runtime"
	"syscall"
	"time"
)

// The Go runtime rounds a sub-millisecond timer up to the next millisecond
// whenever the process is idle (its netpoller waits in epoll with
// millisecond resolution), which made a 1 ms tick schedule run about 0.5 ms
// late at the median. The open loop therefore paces itself on its own
// thread, with nanosleep and a 1 µs timer slack: the ticks then run about
// 20 µs late.

const prSetTimerslack = 29

// pacer returns a sleep function with microsecond precision for the calling
// goroutine, and a release that undoes the thread setup.
func pacer() (sleep func(time.Duration), release func()) {
	runtime.LockOSThread()
	// Best effort: without the smaller slack, sleeps end up to 50 µs later.
	syscall.Syscall(syscall.SYS_PRCTL, prSetTimerslack, 1000, 0)
	sleep = func(d time.Duration) {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) // an interrupted sleep returns early; the caller sleeps again
	}
	release = func() {
		syscall.Syscall(syscall.SYS_PRCTL, prSetTimerslack, 0, 0) // back to the default slack
		runtime.UnlockOSThread()
	}
	return sleep, release
}
