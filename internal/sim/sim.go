// Package sim is a minimal discrete-event simulation kernel: a virtual
// clock and a priority queue of timestamped events. The WSN substrate
// schedules radio transmissions and protocol timers on it; the kernel
// itself knows nothing about radios.
//
// Events with equal timestamps fire in scheduling order (a stable
// sequence number breaks ties), so simulations are fully deterministic.
package sim

import (
	"container/heap"
	"errors"
	"math"
)

// Event is a callback scheduled to run at a virtual time.
type Event func(now float64)

type item struct {
	at  float64
	seq uint64
	fn  Event
}

type eventQueue []*item

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*item)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return it
}

// Kernel is a discrete-event scheduler. The zero value is not usable;
// call NewKernel.
type Kernel struct {
	now    float64
	seq    uint64
	pq     eventQueue
	fired  uint64
	budget uint64 // 0 = unlimited
}

// NewKernel returns an empty kernel at time 0.
func NewKernel() *Kernel {
	return &Kernel{}
}

// Now returns the current virtual time.
func (k *Kernel) Now() float64 { return k.now }

// SetEventBudget caps the total number of events the kernel will execute;
// Run returns ErrBudget when it is exceeded. 0 removes the cap.
func (k *Kernel) SetEventBudget(n uint64) { k.budget = n }

// ErrBudget is returned by Run/RunUntil when the event budget is hit —
// the usual symptom of a runaway protocol loop in a test.
var ErrBudget = errors.New("sim: event budget exceeded")

// At schedules fn at absolute virtual time at. Scheduling in the past
// (before Now) clamps to Now, i.e. the event fires next.
func (k *Kernel) At(at float64, fn Event) {
	if at < k.now {
		at = k.now
	}
	heap.Push(&k.pq, &item{at: at, seq: k.seq, fn: fn})
	k.seq++
}

// After schedules fn delay time units from now.
func (k *Kernel) After(delay float64, fn Event) {
	if delay < 0 {
		delay = 0
	}
	k.At(k.now+delay, fn)
}

// Step executes the earliest pending event, advancing the clock. It
// reports whether an event was executed.
func (k *Kernel) Step() bool {
	if len(k.pq) == 0 {
		return false
	}
	it := heap.Pop(&k.pq).(*item)
	k.now = it.at
	k.fired++
	it.fn(k.now)
	return true
}

// Run executes events until the queue drains (or the budget trips).
func (k *Kernel) Run() error {
	return k.RunUntil(math.Inf(1))
}

// RunUntil executes events with timestamps <= deadline. The clock is left
// at the last executed event (or at deadline if it advanced past all
// events — it does not advance to the deadline when no event exists
// there).
func (k *Kernel) RunUntil(deadline float64) error {
	for len(k.pq) > 0 {
		if k.pq[0].at > deadline {
			return nil
		}
		if k.budget != 0 && k.fired >= k.budget {
			return ErrBudget
		}
		k.Step()
	}
	return nil
}
