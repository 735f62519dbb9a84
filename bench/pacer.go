package main

import (
	"syscall"
	"time"
)

// tick is the paced phase's scheduling quantum.
const tick = time.Millisecond

// clock is what the pacer needs of time, so a test can substitute a fake.
// Times are durations since the phase started.
type clock interface {
	Now() time.Duration
	SleepUntil(t time.Duration)
}

type wallClock struct{ start time.Time }

func (c wallClock) Now() time.Duration { return time.Since(c.start) }

// SleepUntil sleeps in nanosleep(2) rather than time.Sleep: the Go
// runtime parks idle threads in epoll_wait, whose timeout has millisecond
// granularity, so time.Sleep overshoots a 1 ms tick by half a millisecond
// on average; a thread blocked in nanosleep wakes within ~0.1 ms. A
// signal can end the sleep early (EINTR), hence the loop.
func (c wallClock) SleepUntil(t time.Duration) {
	for d := t - c.Now(); d > 0; d = t - c.Now() {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil)
	}
}

// pace runs an open loop: send(k) is called once per tick k, no earlier
// than the tick's due time k*tick. The schedule never shifts: when a send
// overruns its tick (the system pushed back) the following ticks are sent
// late but stay due when they were, so latency measured from the due time
// (dueOf) counts the wait a stall imposes on everything behind it.
//
// It returns, per tick, how long after its due time the tick started
// (late), and how much of that is the generator's own doing (wake): the
// time from the moment the sender was free to start the tick — its due
// time, or the end of the previous send if that overran — to the moment
// it did.
func pace(clk clock, ticks int, send func(k int) error) (late, wake []time.Duration, err error) {
	late = make([]time.Duration, 0, ticks)
	wake = make([]time.Duration, 0, ticks)
	var free time.Duration // when the previous send returned
	for k := 0; k < ticks; k++ {
		due := time.Duration(k) * tick
		clk.SleepUntil(due)
		now := clk.Now()
		late = append(late, now-due)
		wake = append(wake, now-max(due, free))
		if err := send(k); err != nil {
			return late, wake, err
		}
		free = clk.Now()
	}
	return late, wake, nil
}

// dueOf is the due time of the element with the given send index when
// perTick elements are due every tick.
func dueOf(index, perTick int) time.Duration {
	return time.Duration(index/perTick) * tick
}
