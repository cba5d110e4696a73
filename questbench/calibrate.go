package main

import (
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The machine the benchmark shares runs other people's work, and how fast
// it runs ours moves by up to 2.4× within minutes: the same arithmetic takes
// more CPU time, not only more wall time, so CPU-time measurement alone
// does not remove it. Every run therefore times a fixed calibration kernel
// of its own, interleaved with the ops, and reports its times scaled to a
// reference host speed: a time t measured while the kernel took k reads
// t × calRef / k. The kernel is the benchmark's code, not the program's,
// so a change to the program leaves it alone. The kernel's CPU time does
// not hold the time the hypervisor gives the vCPUs to other guests (up to
// a quarter of it in busy spells), which the ops' wall time does, so the
// factor also divides by the share that was not stolen (see watch).

// calRef is the kernel's per-thread CPU time on an unloaded 2.0 GHz host
// (the machine in BENCHMARK.md); it sets the scale of every reported time.
const calRef = 2700 * time.Microsecond

// calIters fixes the kernel's amount of work.
const calIters = 3000

// calSink keeps the compiler from discarding the kernel's result.
var calSink float64

// calKernel runs a fixed amount of the arithmetic synthesis and simulation
// spend their time on: products of 8×8 complex matrices built from sines
// and cosines. Its data is 3 KB, so it measures the host's speed, not the
// state of the caches the ops left behind.
func calKernel() float64 {
	var u, r, t [64]complex128
	for i := 0; i < 8; i++ {
		u[i*8+i] = 1
	}
	for it := 0; it < calIters; it++ {
		s, c := math.Sincos(float64(it) * 1e-3)
		for i := 0; i < 8; i++ {
			for j := 0; j < 8; j++ {
				r[i*8+j] = complex(c*float64(i-j), s*float64(i+j+1)) * 0.1
			}
			r[i*8+i] += 1
		}
		for i := 0; i < 8; i++ {
			for j := 0; j < 8; j++ {
				var acc complex128
				for k := 0; k < 8; k++ {
					acc += u[i*8+k] * r[k*8+j]
				}
				t[i*8+j] = acc
			}
		}
		norm := 0.0
		for _, x := range t {
			norm += real(x)*real(x) + imag(x)*imag(x)
		}
		scale := complex(math.Sqrt(8/norm), 0)
		for i, x := range t {
			u[i] = x * scale
		}
	}
	return real(u[0])
}

// clockThreadCPUTime is Linux's CLOCK_THREAD_CPUTIME_ID. getrusage's
// per-thread times advance in scheduler ticks, too coarse for a kernel of
// a few milliseconds; this clock counts nanoseconds.
const clockThreadCPUTime = 3

// threadCPU returns the CPU time the calling OS thread has used.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// calibrate runs the kernel once on each of n goroutines at the same time,
// each locked to its own OS thread, and returns the median per-thread CPU
// time. The threads' CPU time leaves out the time they waited for a CPU,
// so the questd process running beside serve-manila's client does not
// enter it.
func calibrate(n int) time.Duration {
	times := make([]time.Duration, n)
	sums := make([]float64, n)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			t0 := threadCPU()
			sums[g] = calKernel()
			times[g] = threadCPU() - t0
		}(g)
	}
	wg.Wait()
	for _, s := range sums {
		calSink += s
	}
	return medianDuration(times)
}

// hostSpeed collects calibration times over a run.
type hostSpeed struct {
	mu      sync.Mutex
	samples []time.Duration
	// busy and stolen count the machine's CPU ticks over the windows
	// passed to watch: the ticks its vCPUs wanted to run, and those the
	// hypervisor gave to other guests instead.
	busy, stolen uint64
}

// cpuTicks reads the machine's busy and stolen CPU ticks from /proc/stat
// (zero where there is none).
func cpuTicks() (busy, stolen uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	var v [8]uint64
	for i := range v {
		v[i], _ = strconv.ParseUint(f[i+1], 10, 64)
	}
	// user nice system idle iowait irq softirq steal
	return v[0] + v[1] + v[2] + v[5] + v[6] + v[7], v[7]
}

// watch starts a window of the run the stolen share applies to and
// returns the function that ends it.
func (h *hostSpeed) watch() (done func()) {
	b0, s0 := cpuTicks()
	return func() {
		b1, s1 := cpuTicks()
		h.mu.Lock()
		h.busy += b1 - b0
		h.stolen += s1 - s0
		h.mu.Unlock()
	}
}

// sample calibrates once on n threads, records the time and returns it.
func (h *hostSpeed) sample(n int) time.Duration {
	d := calibrate(n)
	h.add(d)
	return d
}

// add records a calibration time.
func (h *hostSpeed) add(d time.Duration) {
	h.mu.Lock()
	h.samples = append(h.samples, d)
	h.mu.Unlock()
}

// recent returns a hostSpeed holding the last k samples.
func (h *hostSpeed) recent(k int) *hostSpeed {
	h.mu.Lock()
	defer h.mu.Unlock()
	return &hostSpeed{samples: append([]time.Duration(nil), h.samples[max(0, len(h.samples)-k):]...)}
}

// factor returns the run's host factor: its kernelFactor divided by the
// share of the watched windows' busy time that was not stolen, since the
// kernel's CPU time leaves out the time the hypervisor stole from the
// vCPUs and the ops' wall time holds it.
func (h *hostSpeed) factor() float64 {
	return h.kernelFactor() / (1 - h.stolenShare())
}

// kernelFactor returns the median kernel time over calRef: 1 on the
// reference host, 1.5 on a host that runs the kernel half again as slow.
func (h *hostSpeed) kernelFactor() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 {
		return 1
	}
	s := append([]time.Duration(nil), h.samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(medianSorted(s)) / float64(calRef)
}

// stolenShare returns the share of the watched busy time that was stolen,
// at most maxStolen.
func (h *hostSpeed) stolenShare() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return min(maxStolen, ratio(float64(h.stolen), float64(h.busy)))
}

// maxStolen caps the stolen share a time is corrected by.
const maxStolen = 0.8

// stealLog records the machine's busy and stolen CPU ticks at points of a
// run, so that a time spanning part of it can be corrected by the share
// stolen while it ran.
type stealLog struct {
	mu           sync.Mutex
	at           []time.Time
	busy, stolen []uint64
}

// mark records the ticks now.
func (l *stealLog) mark() {
	b, s := cpuTicks()
	now := time.Now()
	l.mu.Lock()
	l.at = append(l.at, now)
	l.busy = append(l.busy, b)
	l.stolen = append(l.stolen, s)
	l.mu.Unlock()
}

// reference returns d, measured from at, on the reference host's scale:
// divided by h's kernel factor and by the share of the busy ticks around
// it that l found not stolen. Steal comes in spells of a few seconds, so
// a run-wide share would spread one spell over every time of the run.
func reference(d time.Duration, at time.Time, h *hostSpeed, l *stealLog) time.Duration {
	return time.Duration(float64(d) * (1 - l.share(at, at.Add(d))) / h.kernelFactor())
}

// stealPad widens the window a time's stolen share is taken over: the
// kernel counts ticks of 10 ms, too coarse for an op of tens of
// milliseconds on its own.
const stealPad = 500 * time.Millisecond

// share returns the stolen share of the busy ticks between the last mark
// at or before t0 − stealPad and the first mark at or after t1 + stealPad,
// at most maxStolen.
func (l *stealLog) share(t0, t1 time.Time) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.at) < 2 {
		return 0
	}
	t0, t1 = t0.Add(-stealPad), t1.Add(stealPad)
	i := sort.Search(len(l.at), func(k int) bool { return l.at[k].After(t0) })
	j := sort.Search(len(l.at), func(k int) bool { return !l.at[k].Before(t1) })
	i, j = max(0, i-1), min(len(l.at)-1, j)
	if j <= i {
		return 0
	}
	return min(maxStolen, ratio(float64(l.stolen[j]-l.stolen[i]), float64(l.busy[j]-l.busy[i])))
}

// scale converts a time measured on this run's host to the reference host.
func (h *hostSpeed) scale(d time.Duration) time.Duration {
	return time.Duration(float64(d) / h.factor())
}
