package main

import (
	"math"
	"sync"
	"syscall"
	"unsafe"
)

// calibrator measures how fast the box is at this moment by timing a fixed
// piece of the benchmark's OWN work: scattered read-modify-writes over a
// table that stays in the core's private cache, then over one that spills
// out of it.
//
// Why it exists: the boxes this benchmark runs on are a few vCPUs of a shared
// host, and the same code runs up to twice as slowly from one quarter minute
// to the next (process CPU time moves with wall time: it is the core and the
// memory system that slow down, not the scheduler taking the CPU away). Whole
// ten-second runs differ by ±10–15 % that way, and no statistic over the
// slices of one run can remove a factor that is common to all of them. The
// calibration is interleaved with the measured work — one reading after
// every slice of the window, about 3 ms per 100 ms — and every slice's
// timings are divided by the readings around it, which takes out half to two
// thirds of the run-to-run spread (README "Noise"). It never calls into the
// program, so a faster program is still a faster program.
type calibrator struct {
	lanes []calibLane // one per processor the workload runs on
}

type calibLane struct {
	small []uint64 // 256 KiB
	large []uint64 // 4 MiB
	sink  uint64
}

// reading is one calibration reading: nanoseconds for the fixed work on the
// small and on the large table.
type reading struct{ small, large float64 }

const (
	calibSmallWords = 1 << 15
	calibLargeWords = 1 << 19
	calibSmallOps   = 600_000
	calibLargeOps   = 80_000
	// What the two parts of a reading take on the box the workloads' rates
	// were sized on, at its median speed: readings of these lengths are speed
	// factor 1, and the published timings are what the program would have
	// done at that speed.
	calibSmallNominalNs = 1_250_000
	calibLargeNominalNs = 1_350_000
)

// newCalibrator maps the tables outside the Go heap, so that the program's
// garbage collector sees the same live heap with the calibration as without
// it. A workload that runs on several processors is limited by all of them,
// so a reading is then taken on `lanes` goroutines at once and averaged.
func newCalibrator(lanes int) (*calibrator, error) {
	c := &calibrator{lanes: make([]calibLane, lanes)}
	for i := range c.lanes {
		mem, err := syscall.Mmap(-1, 0, 8*(calibSmallWords+calibLargeWords),
			syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			return nil, err
		}
		words := unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), calibSmallWords+calibLargeWords)
		c.lanes[i] = calibLane{small: words[:calibSmallWords], large: words[calibSmallWords:]}
	}
	c.measure() // faults the pages in
	return c, nil
}

// scatter does n read-modify-writes at pseudo-random places of buf, whose
// length is a power of two.
func scatter(buf []uint64, n int) uint64 {
	x := uint64(88172645463325252)
	mask := uint64(len(buf) - 1)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		buf[x&mask] += x
	}
	return x
}

// measure takes one reading on one lane. Both tables are first walked once,
// untimed, so that what the reading finds in the caches is its own data
// whatever ran before it: a program whose memory footprint changes must not
// move the yardstick.
func (l *calibLane) measure() reading {
	var sum uint64
	for _, v := range l.large {
		sum += v
	}
	for _, v := range l.small {
		sum += v
	}
	start := nowNs()
	sum += scatter(l.small, calibSmallOps)
	mid := nowNs()
	sum += scatter(l.large, calibLargeOps)
	end := nowNs()
	l.sink += sum
	return reading{float64(mid - start), float64(end - mid)}
}

// measure takes one reading: on the calling goroutine and, for a workload on
// several processors, on one more goroutine per further processor at the same
// time; the lanes' mean is the reading.
func (c *calibrator) measure() reading {
	if len(c.lanes) == 1 {
		return c.lanes[0].measure()
	}
	rs := make([]reading, len(c.lanes))
	var wg sync.WaitGroup
	for i := 1; i < len(c.lanes); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rs[i] = c.lanes[i].measure()
		}()
	}
	rs[0] = c.lanes[0].measure()
	wg.Wait()
	var mean reading
	for _, r := range rs {
		mean.small += r.small / float64(len(rs))
		mean.large += r.large / float64(len(rs))
	}
	return mean
}

// medianReading is the component-wise median of several readings.
func medianReading(rs []reading) reading {
	small, large := make([]float64, len(rs)), make([]float64, len(rs))
	for i, r := range rs {
		small[i], large[i] = r.small, r.large
	}
	return reading{median(small), median(large)}
}

// speed is how much slower (> 1) or faster (< 1) than the reference the box
// was over a stretch of work, from the readings before and after it
// (geometric mean). Two factors, because the box's slow phases do not hit all
// work alike:
//
//   - core: the small table only. It scales PER-UNIT LATENCIES: the median and
//     the 95th-percentile unit do a little work inside the core's own cache.
//   - mixed: both tables. It scales THROUGHPUT and set-up time, which are
//     means over all the work, including the rare units that walk the index
//     and miss the cache.
//
// README "Noise" has the campaigns behind the choice.
type speed struct{ core, mixed float64 }

func speedBetween(before, after reading) speed {
	if before.small <= 0 || after.small <= 0 {
		return speed{1, 1}
	}
	return speed{
		core:  math.Sqrt(before.small*after.small) / calibSmallNominalNs,
		mixed: math.Sqrt((before.small+before.large)*(after.small+after.large)) / (calibSmallNominalNs + calibLargeNominalNs),
	}
}
