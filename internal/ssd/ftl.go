package ssd

import (
	"fmt"

	"ssdtrain/internal/units"
)

const invalidPPA = -1

// blockState tracks one erase block.
type blockState struct {
	valid    int // live pages in the block
	writePtr int // next page to program (== PagesPerBlock when full)
	erases   int // PE cycles consumed
	pages    []int64
}

// FTL is a page-mapped, log-structured flash translation layer with greedy
// garbage collection and wear-aware victim selection. It exists to measure
// write amplification under SSDTrain's workload: the paper argues (§II-C)
// that large sequential tensor writes keep WAF near 1, well below the
// JESD rating workload's 2.5, and this model lets tests demonstrate both
// regimes.
type FTL struct {
	geo Geometry

	l2p    []int // logical page → physical page (block*ppb + slot)
	blocks []blockState
	free   []int // free block indices (LIFO)

	hostActive int // block accepting host writes
	gcActive   int // block accepting GC relocations

	// gcLowWater triggers collection when free blocks drop to it; two
	// blocks are always reserved so relocation can proceed.
	gcLowWater int

	hostPages  int64
	mediaPages int64
	erases     int64
}

// NewFTL builds an FTL over the geometry.
func NewFTL(geo Geometry) (*FTL, error) {
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	total := geo.TotalBlocks()
	if total < 4 {
		return nil, fmt.Errorf("ssd: geometry too small for FTL (%d blocks)", total)
	}
	usablePages := int(geo.UsableBytes() / geo.PageSize)
	f := &FTL{
		geo:        geo,
		l2p:        make([]int, usablePages),
		blocks:     make([]blockState, total),
		gcLowWater: 2,
	}
	for i := range f.l2p {
		f.l2p[i] = invalidPPA
	}
	for i := range f.blocks {
		f.blocks[i].pages = make([]int64, geo.PagesPerBlock)
		for j := range f.blocks[i].pages {
			f.blocks[i].pages[j] = -1
		}
	}
	// All blocks start free; pop two as the initial active blocks.
	for i := total - 1; i >= 0; i-- {
		f.free = append(f.free, i)
	}
	f.hostActive = f.popFree()
	f.gcActive = f.popFree()
	return f, nil
}

// Geometry returns the FTL's flash geometry.
func (f *FTL) Geometry() Geometry { return f.geo }

// LogicalPages returns the number of addressable logical pages.
func (f *FTL) LogicalPages() int { return len(f.l2p) }

func (f *FTL) popFree() int {
	if len(f.free) == 0 {
		panic("ssd: FTL out of free blocks (over-provisioning exhausted)")
	}
	b := f.free[len(f.free)-1]
	f.free = f.free[:len(f.free)-1]
	return b
}

// program places logical page lpn into the given active block, returning
// the possibly-rotated active block index.
func (f *FTL) program(active int, lpn int64) int {
	blk := &f.blocks[active]
	if blk.writePtr >= f.geo.PagesPerBlock {
		panic("ssd: programming a full block")
	}
	slot := blk.writePtr
	blk.writePtr++
	blk.valid++
	blk.pages[slot] = lpn
	f.l2p[lpn] = active*f.geo.PagesPerBlock + slot
	f.mediaPages++
	if blk.writePtr == f.geo.PagesPerBlock {
		return f.popFree()
	}
	return active
}

// invalidate drops the current mapping of lpn if any.
func (f *FTL) invalidate(lpn int64) {
	ppa := f.l2p[lpn]
	if ppa == invalidPPA {
		return
	}
	b := ppa / f.geo.PagesPerBlock
	slot := ppa % f.geo.PagesPerBlock
	f.blocks[b].valid--
	f.blocks[b].pages[slot] = -1
	f.l2p[lpn] = invalidPPA
}

// WritePage services a host write of one logical page.
func (f *FTL) WritePage(lpn int64) {
	if lpn < 0 || lpn >= int64(len(f.l2p)) {
		panic(fmt.Sprintf("ssd: logical page %d out of range", lpn))
	}
	f.hostPages++
	f.invalidate(lpn)
	f.hostActive = f.program(f.hostActive, lpn)
	f.maybeGC()
}

// WriteRange services a sequential host write of count pages from start.
func (f *FTL) WriteRange(start, count int64) {
	for i := int64(0); i < count; i++ {
		f.WritePage(start + i)
	}
}

// Trim invalidates count logical pages from start without writing; the
// tensor cache trims offload files once their activations are consumed,
// which is what keeps GC pressure (and thus WAF) low.
func (f *FTL) Trim(start, count int64) {
	for i := int64(0); i < count; i++ {
		lpn := start + i
		if lpn >= 0 && lpn < int64(len(f.l2p)) {
			f.invalidate(lpn)
		}
	}
	f.reclaimEmpty()
}

// reclaimEmpty erases fully invalid, fully written blocks eagerly.
func (f *FTL) reclaimEmpty() {
	for i := range f.blocks {
		if i == f.hostActive || i == f.gcActive {
			continue
		}
		blk := &f.blocks[i]
		if blk.writePtr == f.geo.PagesPerBlock && blk.valid == 0 {
			f.eraseBlock(i)
		}
	}
}

func (f *FTL) eraseBlock(i int) {
	blk := &f.blocks[i]
	blk.writePtr = 0
	blk.valid = 0
	blk.erases++
	for j := range blk.pages {
		blk.pages[j] = -1
	}
	f.erases++
	f.free = append(f.free, i)
}

// maybeGC runs greedy garbage collection while free blocks are scarce.
func (f *FTL) maybeGC() {
	for len(f.free) <= f.gcLowWater {
		victim := f.pickVictim()
		if victim < 0 {
			panic("ssd: no GC victim available; drive is over-full")
		}
		f.collect(victim)
	}
}

// pickVictim selects the full block with the fewest valid pages, breaking
// ties toward the least-worn block (wear leveling).
func (f *FTL) pickVictim() int {
	best := -1
	for i := range f.blocks {
		if i == f.hostActive || i == f.gcActive {
			continue
		}
		blk := &f.blocks[i]
		if blk.writePtr < f.geo.PagesPerBlock {
			continue // only full blocks are GC candidates
		}
		if best == -1 ||
			blk.valid < f.blocks[best].valid ||
			(blk.valid == f.blocks[best].valid && blk.erases < f.blocks[best].erases) {
			best = i
		}
	}
	return best
}

// collect relocates the victim's valid pages and erases it.
func (f *FTL) collect(victim int) {
	blk := &f.blocks[victim]
	for slot := 0; slot < f.geo.PagesPerBlock; slot++ {
		lpn := blk.pages[slot]
		if lpn < 0 {
			continue
		}
		// Relocation: invalidate old mapping implicitly by reprogramming.
		blk.valid--
		blk.pages[slot] = -1
		f.gcActive = f.program(f.gcActive, lpn)
	}
	f.eraseBlock(victim)
}

// WearStats summarizes media wear.
type WearStats struct {
	HostPages  int64
	MediaPages int64
	Erases     int64
	MaxPE      int
	MeanPE     float64
	// WAF is media pages programmed per host page written.
	WAF float64
}

// Stats returns the current wear statistics.
func (f *FTL) Stats() WearStats {
	s := WearStats{HostPages: f.hostPages, MediaPages: f.mediaPages, Erases: f.erases}
	total := 0
	for i := range f.blocks {
		e := f.blocks[i].erases
		total += e
		if e > s.MaxPE {
			s.MaxPE = e
		}
	}
	s.MeanPE = float64(total) / float64(len(f.blocks))
	if f.hostPages > 0 {
		s.WAF = float64(f.mediaPages) / float64(f.hostPages)
	}
	return s
}

// HostBytes returns cumulative host writes in bytes.
func (f *FTL) HostBytes() units.Bytes {
	return units.Bytes(f.hostPages) * f.geo.PageSize
}
