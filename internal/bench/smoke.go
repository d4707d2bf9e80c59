package bench

import (
	"fmt"

	"repro/internal/apps/kernels"
	"repro/internal/core"
)

// StreamSpanSmoke runs the out-of-core STREAM triad twice on freshly
// booted Samhita runtimes — once through the per-element data plane and
// once through the bulk span accessors — and verifies the two runs
// compute bit-identical checksums. It is the CI gate for the span data
// plane: the span path changes how bytes move (fault-once spans,
// written-extent notices, partial invalidation) but must never change
// what the program computes. The returned summary line reports both
// runs' compute/sync times so the smoke doubles as a coarse perf
// indicator in CI logs.
func StreamSpanSmoke(o Options) (string, error) {
	prm := kernels.StreamParams{Elements: 1 << 15, Iters: 3, Alpha: 3}
	const p = 8

	type outcome struct {
		checksum             float64
		computeNs, syncNs    int64
		fabricMsgs, fabricBy int64
	}
	runOnce := func(spans bool) (outcome, error) {
		// Cap the cache well below the three-array working set so the
		// triad streams: every pass demand-pages lines in and evicts
		// dirty pages out, exercising the span fault path end to end.
		smh, err := o.newSamhita(func(c *core.Config) { c.CacheLines = 16 })
		if err != nil {
			return outcome{}, err
		}
		defer smh.Close()
		pr := prm
		pr.UseSpans = spans
		res, err := kernels.RunStream(smh, p, pr)
		if err != nil {
			return outcome{}, err
		}
		out := outcome{
			checksum:  res.Checksum,
			computeNs: res.Run.MaxComputeTime().Duration().Nanoseconds(),
			syncNs:    res.Run.MaxSyncTime().Duration().Nanoseconds(),
		}
		if fab := smh.Fabric(); fab != nil {
			out.fabricMsgs = fab.Messages()
			out.fabricBy = fab.Bytes()
		}
		return out, nil
	}

	elem, err := runOnce(false)
	if err != nil {
		return "", fmt.Errorf("element-mode stream: %w", err)
	}
	span, err := runOnce(true)
	if err != nil {
		return "", fmt.Errorf("span-mode stream: %w", err)
	}
	if elem.checksum != span.checksum {
		return "", fmt.Errorf("stream span smoke: checksum mismatch: element=%v span=%v",
			elem.checksum, span.checksum)
	}
	return fmt.Sprintf(
		"stream span smoke OK: checksum=%v  element compute=%dns sync=%dns msgs=%d bytes=%d  span compute=%dns sync=%dns msgs=%d bytes=%d",
		elem.checksum,
		elem.computeNs, elem.syncNs, elem.fabricMsgs, elem.fabricBy,
		span.computeNs, span.syncNs, span.fabricMsgs, span.fabricBy), nil
}
