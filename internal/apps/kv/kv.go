// Package kv is the serving-scale workload: a DSM-backed key-value /
// cache service whose buckets live in Samhita global memory behind RegC
// consistency regions, driven by an open-loop client load generator.
//
// Every compute thread plays one client of the service: requests arrive
// on a fixed virtual-time schedule (one request every GapNs nanoseconds
// of the client's clock), NOT on completion of the previous request.
// This is the open-loop discipline serving benchmarks require: a
// closed-loop generator slows its offered rate exactly when the system
// degrades, hiding the tail; an open-loop one keeps offering, so queue-
// ing delay lands in the measured latency where it belongs. The
// generator sleeps to its schedule with Thread.SleepUntil and charges
// each request the interval from its SCHEDULED arrival to completion,
// so a request issued late because its predecessor overran pays its
// queueing delay.
//
// The store is an open-addressed bucket table: key k hashes to bucket
// splitmix64(k) mod Buckets, each bucket is a mutex-guarded array of
// (key, value, version) float64 triples prefixed by a count word. All
// quantities are integers representable exactly in a float64, so the
// element and span data planes produce bit-identical state, and Incr
// (the only mutation in the measured phase) is commutative — the final
// state is independent of request interleaving, which is what makes
// the acked-write conservation check and the span/element checksum
// equality exact even under chaos.
//
// Latency quantiles are tracked in per-client quantile.Sketch objects
// (plain Go memory — measurement apparatus, not workload state) and
// merged in client-index order after the run.
package kv

import (
	"fmt"
	"sync/atomic"

	"repro/internal/bench/quantile"
	"repro/internal/stats"
	"repro/internal/vm"
	"repro/internal/vtime"
)

// base broadcasts a shared allocation's address from thread 0 to the
// other threads across the pre-measurement barrier (the same idiom the
// kernels use).
type base struct{ v atomic.Uint64 }

func (b *base) set(a vm.Addr) { b.v.Store(uint64(a)) }
func (b *base) get() vm.Addr  { return vm.Addr(b.v.Load()) }

// Params parameterizes one KV service run.
type Params struct {
	Buckets int // hash buckets, each an independent RegC region (default 64)
	Keys    int // distinct keys, all pre-seeded before measurement (default 512)
	Ops     int // requests per client thread (default 64)
	GetPct  int // percentage of requests that are Gets, the rest Incrs (default 90)
	// GapNs is each client's inter-arrival gap in virtual nanoseconds:
	// the open-loop schedule offers one request every GapNs regardless
	// of how long requests take (default 20000).
	GapNs int64
	// ServiceFlops adds per-request application compute, modeling
	// request handling beyond the store access (default 0).
	ServiceFlops int
	// UseSpans moves bucket reads and writes onto the bulk span
	// accessors (one cache access per bucket scan / triple write-back).
	UseSpans bool
	// Alpha is the latency sketch's relative accuracy (default
	// quantile.DefaultAlpha).
	Alpha float64
	// RecordArrivals captures every request's scheduled arrival time in
	// Result.Arrivals; the open-loop non-coordination test compares
	// these across runs with different service costs.
	RecordArrivals bool
	// DumpKeys captures every key's final (value, version) pair in
	// Result.Vals/Vers, indexed by key; the per-key linearizability
	// test checks them against the analytically recomputed acked set.
	DumpKeys bool
	// Recover converts a panicking request (an accessor or lock failure
	// under injected faults that the retry/failover machinery could not
	// mask) into a counted error response instead of killing the run —
	// the service's "bounded error responses" discipline. A failure
	// while the bucket lock is held still propagates: the region is
	// poisoned and continuing would corrupt the store.
	Recover bool
	Seed    uint64
}

func (p Params) WithDefaults() Params {
	if p.Buckets == 0 {
		p.Buckets = 64
	}
	if p.Keys == 0 {
		p.Keys = 512
	}
	if p.Ops == 0 {
		p.Ops = 64
	}
	if p.GetPct == 0 {
		p.GetPct = 90
	}
	if p.GapNs == 0 {
		p.GapNs = 20000
	}
	if p.Alpha == 0 {
		p.Alpha = quantile.DefaultAlpha
	}
	if p.Seed == 0 {
		p.Seed = 0xC0FFEE
	}
	return p
}

// Result is the outcome of one KV run.
type Result struct {
	Run *stats.Run

	Ops    int64 // requests completed successfully
	Gets   int64
	Incrs  int64
	Errors int64 // requests turned into error responses (Recover mode)

	// Checksum folds every bucket's (key, value, version) triples into
	// one exact integer-valued float64; span and element planes, and any
	// request interleaving of the same acked set, must agree bit for bit.
	Checksum float64
	// SumVal and SumVer are the exact sums of all values and versions.
	// Conservation: SumVal = seed sum + AckedDelta and SumVer = seed
	// count-of-incrs; no acked increment may be lost or doubled.
	SumVal float64
	SumVer float64
	// AckedDelta is the sum of deltas of every acknowledged Incr
	// (counted client-side as requests complete).
	AckedDelta float64

	// Latency quantiles over all clients' requests, in virtual ns,
	// measured from scheduled arrival to completion.
	Sketch          *quantile.Sketch
	P50, P99, P999  vtime.Time
	MaxLatency      vtime.Time
	IdleTime        vtime.Time // total deliberate open-loop slack
	Arrivals        [][]vtime.Time
	ExpectedSeedSum float64 // analytic seed sum, for convenience in tests

	// Vals and Vers hold each key's final value and version (DumpKeys).
	Vals, Vers []float64
}

// mix64 is splitmix64's finalizer: the deterministic hash behind bucket
// placement and the request stream.
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// bucketOf places key k.
func bucketOf(k, buckets int) int { return int(mix64(uint64(k)) % uint64(buckets)) }

// seedVal is key k's pre-seeded value: a small exact integer.
func seedVal(k int) float64 { return float64(k % 97) }

// SlotsPerBucket returns the exact maximum bucket occupancy for a
// (keys, buckets) pair — a pure function every thread computes
// identically, sizing the bucket arrays without coordination.
func SlotsPerBucket(keys, buckets int) int {
	occ := make([]int, buckets)
	max := 0
	for k := 0; k < keys; k++ {
		b := bucketOf(k, buckets)
		occ[b]++
		if occ[b] > max {
			max = occ[b]
		}
	}
	return max
}

// opKind decodes request o of client t from the deterministic stream.
func opSpec(seed uint64, t, o, keys, getPct int) (key int, isGet bool, delta float64) {
	r := mix64(seed ^ uint64(t)<<32 ^ uint64(o))
	key = int(r % uint64(keys))
	isGet = (r>>32)%100 < uint64(getPct)
	delta = float64(1 + (r>>40)%8)
	return
}

// Run executes the KV service workload on p client threads.
func Run(v vm.VM, p int, prm Params) (*Result, error) {
	prm = prm.WithDefaults()
	slots := SlotsPerBucket(prm.Keys, prm.Buckets)
	stride := 1 + 3*slots // count word + (key, val, ver) triples
	bar := v.NewBarrier(p)
	locks := make([]vm.Mutex, prm.Buckets)
	for i := range locks {
		locks[i] = v.NewMutex()
	}

	var tableBase base
	sketches := make([]*quantile.Sketch, p)
	acked := make([]struct {
		ops, gets, incrs, errs int64
		delta                  float64
	}, p)
	var arrivals [][]vtime.Time
	if prm.RecordArrivals {
		arrivals = make([][]vtime.Time, p)
	}
	checksums := make([]float64, 3) // checksum, sumVal, sumVer by thread 0
	var dumpVals, dumpVers []float64
	if prm.DumpKeys {
		dumpVals = make([]float64, prm.Keys)
		dumpVers = make([]float64, prm.Keys)
	}

	run, err := v.Run(p, func(t vm.Thread) {
		if t.ID() == 0 {
			tableBase.set(t.GlobalAlloc(8 * prm.Buckets * stride))
		}
		bar.Wait(t)
		table := vm.F64{Base: tableBase.get()}
		bucketIdx := func(b int) int { return b * stride }
		scratch := make([]float64, stride)

		// --- Seed phase: key k is inserted by client k mod p. Buckets
		// are mutex-guarded, so concurrent inserts into one bucket
		// serialize; occupancy never exceeds SlotsPerBucket by
		// construction.
		for k := t.ID(); k < prm.Keys; k += p {
			b := bucketOf(k, prm.Buckets)
			bi := bucketIdx(b)
			locks[b].Lock(t)
			n := int(table.At(t, bi))
			si := bi + 1 + 3*n
			table.Set(t, si, float64(k))
			table.Set(t, si+1, seedVal(k))
			table.Set(t, si+2, 0)
			table.Set(t, bi, float64(n+1))
			locks[b].Unlock(t)
		}
		bar.Wait(t)
		t.ResetMeasurement()

		// --- Measured phase: the open-loop request loop. The schedule
		// is fixed at the epoch (the barrier-aligned clock after reset):
		// request o arrives at epoch + (o+1)*gap, whatever happened to
		// requests before it.
		sk := quantile.New(prm.Alpha)
		epoch := t.Clock()
		var rec []vtime.Time
		if prm.RecordArrivals {
			rec = make([]vtime.Time, 0, prm.Ops)
		}
		me := &acked[t.ID()]
		for o := 0; o < prm.Ops; o++ {
			arrival := epoch + vtime.Time(int64(o+1)*prm.GapNs)
			t.SleepUntil(arrival)
			if prm.RecordArrivals {
				rec = append(rec, arrival)
			}
			key, isGet, delta := opSpec(prm.Seed, t.ID(), o, prm.Keys, prm.GetPct)
			ok := serveOne(t, table, locks, bucketIdx, scratch, prm, slots, key, isGet, delta)
			if !ok {
				me.errs++
				continue
			}
			lat := t.Clock() - arrival
			sk.Add(int64(lat))
			me.ops++
			if isGet {
				me.gets++
			} else {
				me.incrs++
				me.delta += delta
			}
		}
		t.StopMeasurement()
		sketches[t.ID()] = sk
		if prm.RecordArrivals {
			arrivals[t.ID()] = rec
		}
		// The closing barrier is an acquire point: after it, thread 0
		// observes every client's writes for the verification scan.
		bar.Wait(t)
		if t.ID() == 0 {
			var cs, sv, sn float64
			for b := 0; b < prm.Buckets; b++ {
				bi := bucketIdx(b)
				var row []float64
				if prm.UseSpans {
					t.ReadFloat64s(table.Addr(bi), scratch)
					row = scratch
				} else {
					for i := 0; i < stride; i++ {
						scratch[i] = table.At(t, bi+i)
					}
					row = scratch
				}
				n := int(row[0])
				for s := 0; s < n; s++ {
					k, val, ver := row[1+3*s], row[2+3*s], row[3+3*s]
					cs += 3*k + 5*val + 7*ver
					sv += val
					sn += ver
					if prm.DumpKeys {
						dumpVals[int(k)] = val
						dumpVers[int(k)] = ver
					}
				}
			}
			checksums[0], checksums[1], checksums[2] = cs, sv, sn
		}
	})
	if err != nil {
		return nil, err
	}

	res := &Result{Run: run, Checksum: checksums[0], SumVal: checksums[1], SumVer: checksums[2]}
	merged := quantile.New(prm.Alpha)
	for i := 0; i < p; i++ { // deterministic merge order (exact anyway)
		merged.Merge(sketches[i])
		res.Ops += acked[i].ops
		res.Gets += acked[i].gets
		res.Incrs += acked[i].incrs
		res.Errors += acked[i].errs
		res.AckedDelta += acked[i].delta
	}
	res.Sketch = merged
	res.P50 = vtime.Time(merged.Quantile(0.50))
	res.P99 = vtime.Time(merged.Quantile(0.99))
	res.P999 = vtime.Time(merged.Quantile(0.999))
	res.MaxLatency = vtime.Time(merged.Max())
	res.Arrivals = arrivals
	res.Vals, res.Vers = dumpVals, dumpVers
	for k := 0; k < prm.Keys; k++ {
		res.ExpectedSeedSum += seedVal(k)
	}
	for i := range run.Threads {
		res.IdleTime += run.Threads[i].IdleTime
	}
	return res, nil
}

// serveOne executes one request. Under Recover a panic raised before
// the bucket lock is held (lock acquisition itself, or the failure
// surfacing inside it) becomes a false return — an error response; a
// panic after acquisition re-propagates, because a half-applied region
// must kill the run, not be retried.
func serveOne(t vm.Thread, table vm.F64, locks []vm.Mutex, bucketIdx func(int) int,
	scratch []float64, prm Params, slots int, key int, isGet bool, delta float64) (ok bool) {
	b := bucketOf(key, prm.Buckets)
	bi := bucketIdx(b)
	held := false
	if prm.Recover {
		defer func() {
			if r := recover(); r != nil {
				if held {
					panic(r)
				}
				ok = false
			}
		}()
	}
	locks[b].Lock(t)
	held = true
	defer func() {
		held = false
		locks[b].Unlock(t)
	}()

	stride := 1 + 3*slots
	find := func(row []float64) int {
		n := int(row[0])
		for s := 0; s < n; s++ {
			if int(row[1+3*s]) == key {
				return s
			}
		}
		return -1
	}
	if prm.UseSpans {
		// One bulk read covers the count word and every slot; an Incr
		// writes back just the owning triple as a 3-element span.
		t.ReadFloat64s(table.Addr(bi), scratch[:stride])
		s := find(scratch[:stride])
		if s < 0 {
			panic(fmt.Sprintf("kv: key %d missing from bucket %d", key, b))
		}
		if !isGet {
			si := bi + 1 + 3*s
			triple := scratch[1+3*s : 4+3*s]
			triple[1] += delta // value
			triple[2]++        // version
			t.WriteFloat64s(table.Addr(si), triple)
		}
	} else {
		n := int(table.At(t, bi))
		s := -1
		for i := 0; i < n; i++ {
			if int(table.At(t, bi+1+3*i)) == key {
				s = i
				break
			}
		}
		if s < 0 {
			panic(fmt.Sprintf("kv: key %d missing from bucket %d", key, b))
		}
		si := bi + 1 + 3*s
		if isGet {
			_ = table.At(t, si+1)
		} else {
			table.Add(t, si+1, delta)
			table.Add(t, si+2, 1)
		}
	}
	if prm.ServiceFlops > 0 {
		t.Compute(prm.ServiceFlops)
	}
	return true
}
