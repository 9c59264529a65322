//go:build !linux

package main

import "time"

// sleeper falls back to the runtime's timers where timerfd is missing.
type sleeper struct{}

func newSleeper() *sleeper             { return &sleeper{} }
func (*sleeper) sleep(d time.Duration) { time.Sleep(d) }
func (*sleeper) close()                {}
