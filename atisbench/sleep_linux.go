package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// sleeper waits on a timerfd through the runtime's network poller. Go's
// own timers wake an idle process with ~1 ms granularity, which would
// swamp the tens of microseconds an open-loop schedule needs; a timerfd
// fires within ~10 µs and holds no P while waiting.
type sleeper struct {
	f   *os.File
	buf [8]byte
}

func newSleeper() *sleeper {
	const clockMonotonic = 1
	fd, _, e := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if e != 0 {
		return &sleeper{}
	}
	return &sleeper{f: os.NewFile(fd, "timerfd")}
}

func (s *sleeper) sleep(d time.Duration) {
	if s.f == nil {
		time.Sleep(d)
		return
	}
	spec := struct{ interval, value syscall.Timespec }{value: syscall.NsecToTimespec(int64(d))}
	_, _, e := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, s.f.Fd(), 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
	if e != 0 {
		time.Sleep(d)
		return
	}
	if _, err := s.f.Read(s.buf[:]); err != nil {
		time.Sleep(d)
	}
}

func (s *sleeper) close() {
	if s.f != nil {
		s.f.Close()
	}
}
