package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// The sandbox this benchmark is tuned on is a 2-vCPU guest that loses
// between 5 % and 40 % of its CPU time to hypervisor steal, in bursts of
// about a second: identical decode-bound epochs took 0.60 to 1.40 s of wall
// clock, and 0.57 to 0.76 s with their steal (from /proc/stat) taken out.
// Steal is the host running somebody else, not the program being slow, so
// units long enough to resolve it are reported without it, in proportion to
// how CPU-bound the unit was. On a host without steal the correction is
// zero.
//
// The other thing the host does: for twenty minutes to a couple of hours at a
// time the whole guest computes a fifth to a third faster or slower with no
// steal to show for it (a busy or idle sibling hyperthread, most likely).
// Fifty back-to-back train_decode runs crossed one such change: the
// in-memory Open went from 0.205 to 0.160 ms, epochs from 0.60 to 0.47 s,
// Q_filter from 2.85 to 2.40 ms. A reference operation (refOp, below) timed
// next to every Open went from 84 to 66 us over the same runs, and the ratio
// of Open to it stayed within 2.39-2.45 throughout. So each run measures
// the host's speed with the reference operation, before and after every
// phase of every round, and reports its timings as they would be at the
// nominal speed, in proportion to how CPU-bound the unit was (see
// recorder.cpuBound and bench.speedShare).
//
// An earlier attempt at this calibrated with eight loops of 2-50 ms a run and
// was dropped: the CPU's speed also wanders by 20-40 % within a second, and
// eight samples of it spread 10-30 % themselves. Thousands of 80 us samples
// spread over the whole pass, summarised by their lower quartile like every
// other timing, repeat to 3 % within one kind of hour.

// cpuTicks is the aggregate "cpu" line of /proc/stat, in USER_HZ ticks of
// 10 ms: busy is time the guest's CPUs ran something, steal is time a vCPU
// had something to run and the hypervisor ran something else.
type cpuTicks struct{ busy, steal int64 }

const tick = time.Second / 100 // USER_HZ is fixed at 100 on Linux

// readTicks returns the zero value where /proc/stat is missing or has no
// steal column, which turns the steal correction off.
func readTicks() cpuTicks {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}
	}
	var t cpuTicks
	for i, s := range f[1:9] {
		v, _ := strconv.ParseInt(s, 10, 64)
		switch i {
		case 0, 1, 2, 5, 6: // user, nice, system, irq, softirq
			t.busy += v
		case 7:
			t.steal = v
		}
	}
	return t
}

// rusage is the CPU time this process has used, at microsecond resolution,
// and its peak resident set in KiB.
func rusage() (cpu time.Duration, maxRSS int64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), ru.Maxrss
}

func cpuTime() time.Duration {
	cpu, _ := rusage()
	return cpu
}

// cpuBound weighs a correction by how CPU-bound a unit was: 0 while the
// process used less than half a CPU over the unit (it was waiting, and a
// slower or stolen CPU falls into that slack), 1 from one whole CPU up (some
// thread was computing all the time), linear in between.
func cpuBound(cpu, wall time.Duration) float64 {
	if wall <= 0 {
		return 0
	}
	return min(1, max(0, (float64(cpu)/float64(wall)-0.5)/0.5))
}

// stopwatch times one unit.
type stopwatch struct {
	begin  time.Time
	cpu    time.Duration
	origin time.Duration
	ticks  cpuTicks
}

func startWatch() stopwatch { return stopwatch{time.Now(), cpuTime(), originWait.busy(), readTicks()} }

// stop returns the unit's wall-clock duration and its duration with stolen
// time removed. The unit must be long enough (>= ~100 ms) for 10 ms ticks to
// resolve its steal. With k CPUs active on average (busy+steal ticks per
// wall tick, at least one), stolen time delayed the unit by steal/k — to the
// extent that the unit was CPU-bound: a fetch-bound epoch has slack the
// stolen ticks fall into, and removing them there over-corrects (over ten
// runs stream_s3's epoch spread 3 % as plain wall clock and 10 % with all its
// steal removed; train_decode's 10 % and 4 %).
func (s stopwatch) stop() (unstolen time.Duration, cost unitCost) {
	cost = unitCost{wall: time.Since(s.begin), cpu: cpuTime() - s.cpu, origin: originWait.busy() - s.origin}
	now := readTicks()
	steal := time.Duration(now.steal-s.ticks.steal) * tick
	active := time.Duration(now.busy-s.ticks.busy)*tick + steal
	k := max(1, float64(active)/float64(cost.wall))
	return cost.wall - time.Duration(cpuBound(cost.cpu, cost.wall)*float64(steal)/k), cost
}

// refOpNominal is what the reference operation takes on the builder's host
// in its usual hours; timings are reported as at the speed where it does.
const refOpNominal = 85 * time.Microsecond

// refDoc is the reference operation's input: a 3.7 KB JSON document shaped
// like dataset metadata.
var refDoc = func() []byte {
	doc := map[string]any{}
	for i := 0; i < 40; i++ {
		doc[fmt.Sprintf("tensor_%d", i)] = map[string]any{
			"htype": "image", "dtype": "uint8", "shape": []int{64, 64, 3}, "chunks": []string{"a", "b", "c"}, "n": i,
		}
	}
	raw, err := json.Marshal(doc)
	if err != nil {
		panic(err)
	}
	return raw
}()

// refOp is the fixed piece of work that measures how fast the host computes
// right now: parsing refDoc into maps, which branches, allocates and touches
// memory the way the program's metadata and query paths do. It calls nothing
// of the program under test, so a change to the program cannot move it.
func refOp() time.Duration {
	begin := time.Now()
	var doc map[string]any
	if err := json.Unmarshal(refDoc, &doc); err != nil || len(doc) != 40 {
		panic("lakebench: reference operation failed")
	}
	return time.Since(begin)
}
