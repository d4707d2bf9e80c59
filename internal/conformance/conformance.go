// Package conformance checks the memory-consistency contract of the
// Samhita runtime: any *data-race-free* program must produce exactly
// the results of a sequentially consistent execution (the fundamental
// guarantee of release-style consistency models, and the paper's
// implicit promise when it says existing threaded codes port with
// trivial modification).
//
// The checker generates random programs that are data-race-free by
// construction and whose results are order-independent, runs them on a
// backend, and compares every observed value against a sequential
// model:
//
//   - A shared array of slots is written in alternating halves: in
//     round r the threads (one writer per slot, rotating) rewrite one
//     half, while the other half — stable since the previous round — is
//     read and verified against the model. Barriers separate rounds, so
//     reads and writes of the same slot are never concurrent.
//   - A second array of lock-protected accumulators takes commutative
//     read-modify-write updates (add) under mutexes, so the final
//     values are independent of lock acquisition order and exactly
//     predictable.
//
// Runtime configurations are randomized too (RandomConfig), so the
// protocol is exercised through eviction, striping and invalidation
// corners, not just the happy path.
package conformance

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/stats"
	"repro/internal/vm"
)

// Program is one generated test program.
type Program struct {
	Seed    int64
	Threads int
	Rounds  int
	Slots   int // shared ordinary slots (even, split in halves)
	Accums  int // lock-protected accumulators
	Locks   int
	// ReadsPerRound is how many stable-half slots each thread verifies
	// per round.
	ReadsPerRound int
	// SlotStride is the distance in bytes from one slot to the next: 8
	// packs them (0 means 8), a page spreads them one to a page, so a
	// thread touching its slots uses the lines it pulls sparsely.
	SlotStride int
}

// Generate builds a random program shape from a seed.
func Generate(seed int64) Program {
	rng := rand.New(rand.NewSource(seed))
	return Program{
		Seed:          seed,
		Threads:       1 + rng.Intn(8),
		Rounds:        2 + rng.Intn(6),
		Slots:         2 * (4 + rng.Intn(60)), // even
		Accums:        1 + rng.Intn(6),
		Locks:         1 + rng.Intn(3),
		ReadsPerRound: 1 + rng.Intn(8),
		SlotStride:    []int{8, layout.DefaultPageSize}[rng.Intn(2)],
	}
}

// RandomConfig builds a Samhita configuration that stresses a different
// protocol corner per seed: line size, cache capacity (down to thrashing,
// up to keeping stale copies resident), memory servers and their shards,
// prefetch depth, and manager homes. Every seed runs RegC, the one
// consistency protocol.
func RandomConfig(seed int64) core.Config {
	rng := rand.New(rand.NewSource(seed))
	cfg := core.DefaultConfig()
	cfg.Geo.LinePages = []int{1, 2, 4, 8}[rng.Intn(4)]
	cfg.Geo.NumServers = 1 + rng.Intn(3)
	cfg.CacheLines = []int{2, 4, 16, 64, 1024}[rng.Intn(5)]
	cfg.Prefetch = rng.Intn(2) == 0
	cfg.PrefetchDepth = rng.Intn(4) // 0 = one line ahead; up to 3 ahead
	cfg.ServerShards = []int{1, 2, 4}[rng.Intn(3)]
	cfg.ManagerShards = []int{1, 2, 4}[rng.Intn(3)]
	return cfg
}

// slotValue is the deterministic value written to slot s in round r (by
// whichever thread owns it that round).
func slotValue(seed int64, s, r int) int64 {
	v := uint64(seed)*0x9E3779B97F4A7C15 + uint64(s)*0xBF58476D1CE4E5B9 + uint64(r)*0x94D049BB133111EB
	v ^= v >> 31
	return int64(v)
}

// writer reports which thread rewrites slot s in round r.
func (p Program) writer(s, r int) int { return (s + r) % p.Threads }

// accumDelta is the amount thread t adds to accumulator a in round r;
// addition commutes, so the final total is order-independent.
func accumDelta(seed int64, t, a, r int) int64 {
	v := uint64(seed) + uint64(t)*0xD6E8FEB86659FD93 + uint64(a)*0xCA5A826395121157 + uint64(r)*0x9E3779B97F4A7C15
	v ^= v >> 33
	return int64(v % 1000)
}

// expectedAccum is the model value of accumulator a after all rounds.
func (p Program) expectedAccum(a int) int64 {
	var sum int64
	for r := 0; r < p.Rounds; r++ {
		for t := 0; t < p.Threads; t++ {
			sum += accumDelta(p.Seed, t, a, r)
		}
	}
	return sum
}

// expectedSlot is the model value of slot s after all rounds: the last
// round that rewrote s's half determines it.
func (p Program) expectedSlot(s int) int64 {
	half := s % 2 // slots alternate halves by parity
	lastRound := -1
	for r := p.Rounds - 1; r >= 0; r-- {
		if r%2 == half {
			lastRound = r
			break
		}
	}
	if lastRound < 0 {
		return 0
	}
	return slotValue(p.Seed, s, lastRound)
}

// strided is an array of int64 slots stride bytes apart.
type strided struct {
	base   vm.Addr
	stride int
}

func (a strided) At(t vm.Thread, i int) int64 { return t.ReadInt64(a.base + vm.Addr(i*a.stride)) }
func (a strided) Set(t vm.Thread, i int, v int64) {
	t.WriteInt64(a.base+vm.Addr(i*a.stride), v)
}

// Violation describes one consistency failure.
type Violation struct {
	Thread int
	What   string
}

func (v Violation) String() string { return fmt.Sprintf("thread %d: %s", v.Thread, v.What) }

// Run executes the program on the backend and returns every violation
// observed (nil means the execution was sequentially consistent).
func Run(v vm.VM, p Program) ([]Violation, error) {
	viols, _, err := RunStats(v, p)
	return viols, err
}

// RunStats is Run that also returns the run's per-thread statistics.
func RunStats(v vm.VM, p Program) ([]Violation, *stats.Run, error) {
	if p.Threads < 1 || p.Rounds < 1 || p.Slots < 2 || p.Slots%2 != 0 {
		return nil, nil, fmt.Errorf("conformance: malformed program %+v", p)
	}
	mus := make([]vm.Mutex, p.Locks)
	for i := range mus {
		mus[i] = v.NewMutex()
	}
	bar := v.NewBarrier(p.Threads)

	var base atomic.Uint64
	violationCh := make(chan Violation, 1024)

	run, err := v.Run(p.Threads, func(t vm.Thread) {
		report := func(format string, args ...any) {
			select {
			case violationCh <- Violation{Thread: t.ID(), What: fmt.Sprintf(format, args...)}:
			default:
			}
		}
		stride := max(p.SlotStride, 8)
		if t.ID() == 0 {
			base.Store(uint64(t.GlobalAlloc(p.Slots*stride + p.Accums*8)))
		}
		bar.Wait(t)
		slots := strided{base: vm.Addr(base.Load()), stride: stride}
		accums := vm.I64{Base: vm.Addr(base.Load()) + vm.Addr(stride*p.Slots)}
		rng := rand.New(rand.NewSource(p.Seed ^ int64(t.ID()+1)*0x1D872B41))

		for r := 0; r < p.Rounds; r++ {
			writeHalf := r % 2
			// Write this round's half: one writer per slot.
			for s := writeHalf; s < p.Slots; s += 2 {
				if p.writer(s, r) == t.ID() {
					slots.Set(t, s, slotValue(p.Seed, s, r))
				}
			}
			// Read and verify the stable half (last rewritten in round
			// r-1, or never).
			stableHalf := 1 - writeHalf
			for i := 0; i < p.ReadsPerRound; i++ {
				s := stableHalf + 2*rng.Intn(p.Slots/2)
				var want int64
				if r > 0 {
					want = slotValue(p.Seed, s, r-1)
				}
				if got := slots.At(t, s); got != want {
					report("round %d: slot %d = %d, want %d", r, s, got, want)
				}
			}
			// Commutative locked updates.
			for a := 0; a < p.Accums; a++ {
				l := mus[a%p.Locks]
				l.Lock(t)
				accums.Set(t, a, accums.At(t, a)+accumDelta(p.Seed, t.ID(), a, r))
				l.Unlock(t)
			}
			bar.Wait(t)
		}

		// Final verification: every thread checks the whole state.
		for s := 0; s < p.Slots; s++ {
			if got := slots.At(t, s); got != p.expectedSlot(s) {
				report("final: slot %d = %d, want %d", s, got, p.expectedSlot(s))
			}
		}
		for a := 0; a < p.Accums; a++ {
			if got := accums.At(t, a); got != p.expectedAccum(a) {
				report("final: accumulator %d = %d, want %d", a, got, p.expectedAccum(a))
			}
		}
	})
	close(violationCh)
	var out []Violation
	for viol := range violationCh {
		out = append(out, viol)
	}
	return out, run, err
}
