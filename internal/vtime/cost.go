package vtime

import "fmt"

// LinkModel describes one class of interconnect in virtual time. The
// paper's testbed crosses a QDR InfiniBand fabric between every pair of
// components (each crossing includes HCA, switch and a PCI Express hop on
// both sides); its future-work target is the PCI Express bus between a
// host processor and an Intel MIC coprocessor, reached through SCIF.
type LinkModel struct {
	// Name identifies the preset ("qdr-ib", "pcie-scif", ...).
	Name string
	// Latency is the one-way propagation + injection latency charged to
	// every message regardless of size.
	Latency Time
	// BytesPerSec is the effective link bandwidth.
	BytesPerSec float64
	// SendOverhead is CPU time spent by the sender to post a message
	// (verbs work-request construction in the real system). It is charged
	// to the sender's clock in addition to the wire time.
	SendOverhead Time
	// ServiceTime is the fixed time a server needs to pick up and act on
	// one request, excluding the data-dependent work. Serial request
	// processing at a server multiplied by this is the queueing term that
	// creates memory-server hot spots.
	ServiceTime Time
}

// XferTime reports the time the payload of the given size occupies the
// wire.
func (m LinkModel) XferTime(bytes int) Time {
	if bytes <= 0 {
		return 0
	}
	if m.BytesPerSec <= 0 {
		panic(fmt.Sprintf("vtime: link %q has non-positive bandwidth", m.Name))
	}
	return Time(float64(bytes) / m.BytesPerSec * float64(Second))
}

// Deliver computes the arrival time of a message of the given size sent
// at sendTime.
func (m LinkModel) Deliver(sendTime Time, bytes int) Time {
	return sendTime + m.Latency + m.XferTime(bytes)
}

// CPUModel describes the compute side of the cost model: how long the
// simulated cores take to execute application arithmetic and the
// software overheads of the Samhita runtime fault path.
type CPUModel struct {
	// FlopTime is the cost of one floating-point operation. The paper's
	// compute nodes are 2.8 GHz Harpertown Xeons; with pipelining a
	// sustained flop costs well under a cycle on vectorizable kernels,
	// but the micro-benchmark is a scalar dependent chain, so one flop
	// per ~1.4 cycles is representative.
	FlopTime Time
	// AccessTime is the per-element overhead of going through the
	// software cache on a hit (address translation, bounds and residency
	// check). The real system pays nothing on a hit because the MMU does
	// the check; we keep this extremely small but non-zero so that the
	// software-cache slow path is visible in ablations.
	AccessTime Time
	// FaultOverhead is the fixed software cost of taking a miss in the
	// local cache (signal handling, cache-line bookkeeping) before any
	// communication starts.
	FaultOverhead Time
	// TwinTime is the cost of creating a twin (copy) of one page on the
	// first write in an interval.
	TwinTime Time
	// DiffBytesPerSec is the rate at which a dirty page is scanned
	// against its twin when a diff is computed at a release point
	// (a compare+copy pass, roughly memcpy speed).
	DiffBytesPerSec float64
	// ApplyBytesPerSec is the rate at which diffs and fine-grained
	// update records are patched into pages.
	ApplyBytesPerSec float64
	// CopyBytesPerSec is the rate of bulk page copies (assembling and
	// installing fetched cache lines).
	CopyBytesPerSec float64
	// SpanBytesPerSec is the rate at which bulk span accessors move
	// bytes between the application's buffer and the cache (one streamed
	// memcpy). 0 falls back to CopyBytesPerSec. Span accesses charge
	// AccessTime once plus this per-byte term, instead of AccessTime per
	// element.
	SpanBytesPerSec float64
	// InvalidateTime is the cost of invalidating one cached page when a
	// write notice names it (page-table manipulation in the real
	// system).
	InvalidateTime Time
	// LockTime is the local cost of a lock or unlock operation
	// (bookkeeping around the manager round trip).
	LockTime Time
}

// rate converts bytes at a bytes-per-second rate into virtual time.
func rate(bytes int, bps float64) Time {
	if bytes <= 0 {
		return 0
	}
	if bps <= 0 {
		panic("vtime: non-positive byte rate")
	}
	return Time(float64(bytes) / bps * float64(Second))
}

// DiffTime is the cost of diffing n bytes against a twin.
func (m CPUModel) DiffTime(n int) Time { return rate(n, m.DiffBytesPerSec) }

// ApplyTime is the cost of patching n bytes into a page.
func (m CPUModel) ApplyTime(n int) Time { return rate(n, m.ApplyBytesPerSec) }

// CopyTime is the cost of bulk-copying n bytes.
func (m CPUModel) CopyTime(n int) Time { return rate(n, m.CopyBytesPerSec) }

// SpanTime is the per-byte cost of a bulk span access.
func (m CPUModel) SpanTime(n int) Time {
	if m.SpanBytesPerSec > 0 {
		return rate(n, m.SpanBytesPerSec)
	}
	return rate(n, m.CopyBytesPerSec)
}

// TierModel describes the backing tier behind a memory server's hot
// set: the latency and bandwidth of moving a (compressed) frame group
// between uncompressed hot pages and the cold store. Demotions and
// promotions charge MoveTime against the owning shard's clock, so an
// out-of-core working set shows up directly in virtual time.
type TierModel struct {
	// Name identifies the preset ("cold-remote", "cold-nvme", ...).
	Name string
	// Latency is the fixed per-move cost (request setup, seek,
	// round-trip to the backing store).
	Latency Time
	// BytesPerSec is the sustained move bandwidth for frame payloads.
	BytesPerSec float64
}

// MoveTime reports the virtual time one promotion or demotion of the
// given payload size costs.
func (m TierModel) MoveTime(bytes int) Time {
	if m.BytesPerSec <= 0 {
		panic(fmt.Sprintf("vtime: tier %q has non-positive bandwidth", m.Name))
	}
	return m.Latency + rate(bytes, m.BytesPerSec)
}

// Cold-tier presets. ColdRemote matches the frame-table numbers the
// e2b-style designs assume for a network-attached backing store (LRU
// over ~30% of the data, 20 ms access latency, 200 MB/s streaming);
// ColdNVMe models a local NVMe device and is the default when a hot
// budget is set without naming a preset.
var (
	ColdRemote = TierModel{
		Name:        "cold-remote",
		Latency:     20 * Millisecond,
		BytesPerSec: 200e6,
	}
	ColdNVMe = TierModel{
		Name:        "cold-nvme",
		Latency:     20 * Microsecond,
		BytesPerSec: 2.0e9,
	}
)

// LinkPreset resolves an interconnect preset by its Name ("qdr-ib",
// "pcie-scif", "intra-node").
func LinkPreset(name string) (LinkModel, bool) {
	for _, l := range []LinkModel{QDRInfiniBand, PCIeSCIF, IntraNode} {
		if l.Name == name {
			return l, true
		}
	}
	return LinkModel{}, false
}

// TierPreset resolves a cold-tier preset by name; it returns false for
// names it does not know.
func TierPreset(name string) (TierModel, bool) {
	switch name {
	case "", ColdNVMe.Name, "nvme":
		return ColdNVMe, true
	case ColdRemote.Name, "remote":
		return ColdRemote, true
	}
	return TierModel{}, false
}

// HWModel describes the cache-coherent shared-memory baseline used for
// the Pthreads comparison: ordinary loads/stores plus hardware-speed
// synchronization.
type HWModel struct {
	FlopTime Time
	// AccessTime is per-element load/store cost for the baseline.
	AccessTime Time
	// LockTime is the uncontended cost of a pthread mutex operation.
	LockTime Time
	// BarrierBase and BarrierPerThread model a centralized pthread
	// barrier: base plus a per-participant term.
	BarrierBase      Time
	BarrierPerThread Time
	// CoherenceMiss approximates the penalty a thread pays when it
	// acquires a cache line last written by another core (e.g. the
	// global-sum line bouncing between cores). Charged on lock handoff.
	CoherenceMiss Time
}

// Presets for the interconnects the paper discusses.
var (
	// QDRInfiniBand models the paper's testbed: 4x QDR IB verbs with a
	// PCIe hop on each end. ~1.6 us end-to-end small-message latency and
	// ~3.2 GB/s effective bandwidth are typical verbs-level numbers for
	// that generation.
	QDRInfiniBand = LinkModel{
		Name:         "qdr-ib",
		Latency:      1600 * Nanosecond,
		BytesPerSec:  3.2e9,
		SendOverhead: 300 * Nanosecond,
		ServiceTime:  500 * Nanosecond,
	}

	// PCIeSCIF models the paper's future-work target: SCIF over the PCI
	// Express bus between host and Xeon Phi. Lower latency than going
	// out through an HCA and a switch, comparable bandwidth (PCIe 2.0
	// x16 minus protocol overhead).
	PCIeSCIF = LinkModel{
		Name:         "pcie-scif",
		Latency:      900 * Nanosecond,
		BytesPerSec:  5.0e9,
		SendOverhead: 200 * Nanosecond,
		ServiceTime:  400 * Nanosecond,
	}

	// IntraNode models communication between components placed on the
	// same node (shared-memory transport), used when several Samhita
	// components share a node.
	IntraNode = LinkModel{
		Name:         "intra-node",
		Latency:      250 * Nanosecond,
		BytesPerSec:  8.0e9,
		SendOverhead: 100 * Nanosecond,
		ServiceTime:  150 * Nanosecond,
	}
)

// DefaultCPU is the compute-side cost model matching the paper's 2.8 GHz
// Penryn/Harpertown Xeon compute cores.
var DefaultCPU = CPUModel{
	FlopTime:         1 * Nanosecond,
	AccessTime:       1 * Nanosecond,
	FaultOverhead:    2500 * Nanosecond,
	TwinTime:         500 * Nanosecond, // one 4 KiB page copy at memcpy speed
	DiffBytesPerSec:  8.0e9,            // compare+copy pass
	ApplyBytesPerSec: 8.0e9,
	CopyBytesPerSec:  12.0e9, // straight memcpy
	InvalidateTime:   150 * Nanosecond,
	LockTime:         120 * Nanosecond,
}

// DefaultHW is the cache-coherent baseline model for the same node. Its
// FlopTime and AccessTime deliberately equal DefaultCPU's so that
// compute-time normalization between backends (Figures 3-5) compares the
// runtime overheads, not different arithmetic speeds.
var DefaultHW = HWModel{
	FlopTime:         1 * Nanosecond,
	AccessTime:       1 * Nanosecond,
	LockTime:         90 * Nanosecond,
	BarrierBase:      800 * Nanosecond,
	BarrierPerThread: 220 * Nanosecond,
	CoherenceMiss:    180 * Nanosecond,
}

// XeonPhiCPU models a Knights-Corner-class coprocessor core for the
// paper's Figure-1 scenario: ~1 GHz simple in-order cores, slow scalar
// arithmetic (the micro-benchmark's dependent chains cannot use the
// 512-bit vector unit), higher software-fault overheads, and lower
// per-core copy bandwidth than the host Xeon. Roughly 4x slower per
// core than DefaultCPU — which is the trade the coprocessor makes for
// having ~60 of them.
var XeonPhiCPU = CPUModel{
	FlopTime:         4 * Nanosecond,
	AccessTime:       3 * Nanosecond,
	FaultOverhead:    6000 * Nanosecond,
	TwinTime:         1500 * Nanosecond,
	DiffBytesPerSec:  2.5e9,
	ApplyBytesPerSec: 2.5e9,
	CopyBytesPerSec:  5.0e9,
	InvalidateTime:   400 * Nanosecond,
	LockTime:         300 * Nanosecond,
}
