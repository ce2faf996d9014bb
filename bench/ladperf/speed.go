package main

import (
	"math/rand/v2"
	"runtime"
	"slices"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark's host is a virtual machine whose physical cores are
// shared with other tenants, and the same instructions run up to twice as
// slowly while a neighbour is busy. The slow and fast states alternate
// within tens of milliseconds, and the share of time spent in the slow
// one changes from minute to minute, so the timings of two runs of the
// same code can differ by a third. A probe measures the state: at most
// every probeEvery, between two units of work (no request is in flight),
// the closed loop runs a fixed piece of CPU work and times it by the
// thread's own CPU clock, so that waiting for a core is not counted, only
// how fast the core runs. The ratio of that time to refNominal is the
// host's slowdown at that moment, and the timing metrics divide each
// unit's latency by the slowdown last measured before it: they are
// stated at the host's fast-state speed. See README.md.

const (
	probeEvery = 10 * time.Millisecond
	refRounds  = 2 // kernel rounds a probe times
	// refNominal is what refRounds rounds take on the benchmark's
	// reference host (a 2-vCPU Xeon virtual machine) in its fast state.
	refNominal = 100 * time.Microsecond
	refSize    = 256
)

// refKernel is the probe's fixed, allocation-free work, made only of
// standard-library calls of the kinds a check spends its time in: number
// formatting and parsing, map lookups and sorting. It touches about 20 kB.
// Nothing in it depends on the code under test, so a change to the server
// cannot change what it measures.
type refKernel struct {
	floats         []float64
	text           []string
	keys           []uint64
	table          map[uint64]int
	order, scratch []int
	buf            []byte
	sink           float64
}

func newRefKernel() *refKernel {
	r := rand.New(rand.NewPCG(1, 2))
	k := &refKernel{table: make(map[uint64]int, refSize), scratch: make([]int, refSize), buf: make([]byte, 0, 64)}
	for i := range refSize {
		f := r.NormFloat64() * 1000
		k.floats = append(k.floats, f)
		k.text = append(k.text, strconv.FormatFloat(1.5*f, 'g', -1, 64))
		key := r.Uint64()
		k.keys = append(k.keys, key)
		k.table[key] = i
		k.order = append(k.order, r.IntN(1<<20))
	}
	return k
}

func (k *refKernel) run(rounds int) {
	for range rounds {
		for i, f := range k.floats {
			k.buf = strconv.AppendFloat(k.buf[:0], f, 'g', -1, 64)
			k.buf = strconv.AppendInt(k.buf, int64(i), 10)
			g, _ := strconv.ParseFloat(k.text[i], 64)
			k.sink += g + float64(k.table[k.keys[i]]+len(k.buf))
		}
		copy(k.scratch, k.order)
		slices.Sort(k.scratch)
	}
}

// threadCPU is the calling thread's CPU time.
func threadCPU() time.Duration {
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		panic("clock_gettime(CLOCK_THREAD_CPUTIME_ID): " + errno.Error())
	}
	return time.Duration(ts.Nano())
}

// probeEvent is one probe: when it started, how long it paused the
// caller, and the slowdown it measured.
type probeEvent struct {
	at    time.Time
	pause time.Duration
	slow  float64
}

// probe measures the host's slowdown at most once per probeEvery. It
// belongs to one goroutine.
type probe struct {
	k      *refKernel
	next   time.Time
	slow   float64
	events []probeEvent
}

func newProbe() *probe { return &probe{k: newRefKernel()} }

// tick runs the kernel if a probe is due (the first call always probes)
// and returns the latest slowdown.
func (p *probe) tick() float64 {
	now := time.Now()
	if now.Before(p.next) {
		return p.slow
	}
	runtime.LockOSThread()
	p.k.run(1) // bring the kernel's data back into the caches the load used
	c0 := threadCPU()
	p.k.run(refRounds)
	p.slow = float64(threadCPU()-c0) / float64(refNominal)
	runtime.UnlockOSThread()
	end := time.Now()
	p.events = append(p.events, probeEvent{at: now, pause: end.Sub(now), slow: p.slow})
	p.next = end.Add(probeEvery)
	return p.slow
}

// meanSince is the mean slowdown of the probes from event i on; 1 if
// there are none.
func (p *probe) meanSince(i int) float64 {
	if i >= len(p.events) {
		return 1
	}
	var sum float64
	for _, e := range p.events[i:] {
		sum += e.slow
	}
	return sum / float64(len(p.events)-i)
}
