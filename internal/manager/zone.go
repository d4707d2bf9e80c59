package manager

import (
	"fmt"
	"sort"

	"repro/internal/layout"
)

// Zone is one contiguous region of the global address space managed by
// the manager's allocator: the shared zone for medium allocations, the
// striped zone for large ones, and the arena zone that hands
// line-aligned chunks to per-thread arenas.
//
// It is a first-fit free-list allocator with coalescing. Simplicity is
// preferred over allocation speed: the paper's point is that *small*
// allocations never reach the manager at all, so the manager-side
// allocator is off the fast path by design.
type Zone struct {
	name  string
	base  layout.Addr
	limit layout.Addr
	next  layout.Addr // bump pointer; space above it has never been used

	free   []span                 // sorted, coalesced free spans below next
	allocs map[layout.Addr]uint64 // live allocations: base -> size
}

type span struct {
	base layout.Addr
	size uint64
}

// NewZone creates a zone covering [base, limit).
func NewZone(name string, base, limit layout.Addr) *Zone {
	if limit <= base {
		panic(fmt.Sprintf("manager: zone %q has non-positive extent", name))
	}
	return &Zone{
		name:   name,
		base:   base,
		limit:  limit,
		next:   base,
		allocs: make(map[layout.Addr]uint64),
	}
}

// Alloc returns the base of a free range of the given size and
// alignment, or an error if the zone is exhausted.
func (z *Zone) Alloc(size uint64, align int) (layout.Addr, error) {
	if size == 0 {
		return 0, fmt.Errorf("manager: zero-size allocation in zone %q", z.name)
	}
	if align <= 0 {
		return 0, fmt.Errorf("manager: bad alignment %d in zone %q", align, z.name)
	}
	// First fit in the free list, honoring alignment by splitting.
	// Alignment is arbitrary (striped-zone groups of lineSize*servers
	// are not powers of two), so round with division.
	alignUp := func(a layout.Addr) layout.Addr {
		n := layout.Addr(align)
		return (a + n - 1) / n * n
	}
	for i, s := range z.free {
		a := alignUp(s.base)
		pad := uint64(a - s.base)
		if s.size < pad+size {
			continue
		}
		z.removeSpan(i)
		if pad > 0 {
			z.insertSpan(span{base: s.base, size: pad})
		}
		if rest := s.size - pad - size; rest > 0 {
			z.insertSpan(span{base: a + layout.Addr(size), size: rest})
		}
		z.allocs[a] = size
		return a, nil
	}
	// Bump allocation.
	a := alignUp(z.next)
	if pad := uint64(a - z.next); pad > 0 {
		z.insertSpan(span{base: z.next, size: pad})
	}
	end := a + layout.Addr(size)
	if end > z.limit {
		return 0, fmt.Errorf("manager: zone %q exhausted (%d bytes requested, %d available)",
			z.name, size, uint64(z.limit-a))
	}
	z.next = end
	z.allocs[a] = size
	return a, nil
}

// Free returns an allocation to the zone.
func (z *Zone) Free(addr layout.Addr) error {
	size, ok := z.allocs[addr]
	if !ok {
		return fmt.Errorf("manager: free of unallocated address %#x in zone %q", uint64(addr), z.name)
	}
	delete(z.allocs, addr)
	z.insertSpan(span{base: addr, size: size})
	return nil
}

// Contains reports whether addr lies in this zone.
func (z *Zone) Contains(addr layout.Addr) bool { return addr >= z.base && addr < z.limit }

// Live reports the number of outstanding allocations.
func (z *Zone) Live() int { return len(z.allocs) }

// InUse reports the total bytes currently allocated.
func (z *Zone) InUse() uint64 {
	var n uint64
	for _, s := range z.allocs {
		n += s
	}
	return n
}

func (z *Zone) removeSpan(i int) {
	z.free = append(z.free[:i], z.free[i+1:]...)
}

// insertSpan adds a span keeping the list sorted and coalesced.
func (z *Zone) insertSpan(s span) {
	i := sort.Search(len(z.free), func(i int) bool { return z.free[i].base > s.base })
	z.free = append(z.free, span{})
	copy(z.free[i+1:], z.free[i:])
	z.free[i] = s
	// Coalesce with successor, then predecessor.
	if i+1 < len(z.free) && z.free[i].base+layout.Addr(z.free[i].size) == z.free[i+1].base {
		z.free[i].size += z.free[i+1].size
		z.removeSpan(i + 1)
	}
	if i > 0 && z.free[i-1].base+layout.Addr(z.free[i-1].size) == z.free[i].base {
		z.free[i-1].size += z.free[i].size
		z.removeSpan(i)
	}
	// A span reaching the bump pointer melts back into virgin space.
	if n := len(z.free); n > 0 && z.free[n-1].base+layout.Addr(z.free[n-1].size) == z.next {
		z.next = z.free[n-1].base
		z.free = z.free[:n-1]
	}
}
