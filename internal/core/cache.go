package core

import (
	"fmt"
	"slices"
	"time"

	"ssdtrain/internal/autograd"
	"ssdtrain/internal/gpu"
	"ssdtrain/internal/tensor"
	"ssdtrain/internal/trace"
	"ssdtrain/internal/units"
)

// minElems is the small-tensor passthrough threshold in elements (Alg. 1
// line 2: math.prod(t.size()) < 2**20).
const minElems = 1 << 20

// Config configures the tensor cache.
type Config struct {
	Runtime *autograd.Runtime
	// Offloader is the tier stack the cache writes to; a single-target
	// cache is a one-rung stack.
	Offloader *TieredOffloader
	// Budget bounds the bytes submitted for offload per micro-batch
	// (Alg. 1's is_offload_amount_reached); 0 offloads nothing. Use
	// PlanHierarchyBudget to derive it from the Fig 3 workflow inputs.
	Budget units.Bytes
	// HostCost is the CPU time per hook invocation, charged to host time.
	HostCost time.Duration
	// PrefetchAhead is how many upcoming modules to prefetch when entering
	// a module's backward (§III-C2). 0 selects the default: prefetch every
	// known module, keeping the load queue busy end-to-end (the paper
	// notes any scheme works "as long as there are always I/O tasks in
	// the GPU job queue to keep PCIe busy"). Negative disables
	// prefetching entirely (ablation: every reload becomes a demand load).
	PrefetchAhead int
	// KeepLastModules keeps the activations of the last K forward modules
	// in GPU memory (Fig 2 ④); the module list is learned from the
	// previous micro-batch's forward order.
	KeepLastModules int
	// Verify checks payload checksums on reload (requires materialized
	// tensors).
	Verify bool
	// NoForwarding disables §III-C2 data forwarding (ablation): unpacking
	// a tensor whose store is still in flight waits for the store and
	// reads it back from the target instead of using the in-memory copy.
	NoForwarding bool
	// NoDedup disables §III-C1 deduplication (ablation): every pack gets
	// its own record and its own I/O, as with address-based identifiers.
	NoDedup bool
	// Footprint sizes the cache's tables for the graph it will run, so a
	// fresh arena's first step fills them instead of regrowing them from
	// empty: the record maps and record slabs for the tensors a
	// micro-batch saves and the module tables for its blocks. The zero
	// footprint leaves them to grow.
	Footprint autograd.Footprint
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.HostCost == 0 {
		c.HostCost = 15 * time.Microsecond
	}
	if c.PrefetchAhead == 0 {
		c.PrefetchAhead = 1 << 30 // prefetch everything known
	}
	if c.PrefetchAhead < 0 {
		c.PrefetchAhead = 0 // ablation: no prefetch
	}
	return c
}

// record tracks one saved tensor's cache state — the in-memory structure
// of §III-B ("manages the references to all activations and tracks
// activations' states, including if they are being offloaded, the path in
// the file system, etc.").
type record struct {
	id    TensorID
	mb    int
	bytes units.Bytes
	scope *autograd.Module

	// t is the original tensor; the cache holds a strong reference while
	// the tensor is kept, being stored, or forwarded.
	t *tensor.Tensor

	storeStart  time.Duration
	storeFinish time.Duration

	loadStart  time.Duration
	loadFinish time.Duration
	loaded     *tensor.Tensor

	refs     int // pack registrations (dedup makes this >1)
	consumed int

	// prev is the record packed before this one in the same module, so a
	// module's records form a list its backward walks in reverse pack
	// order (TensorCache.modHead).
	prev *record

	// The narrow fields come last, so a record packs into 120 bytes.
	checksum  uint32
	offloaded bool
	// released marks the original reference as dropped (store completed
	// and ownership handed to garbage collection).
	released  bool
	forwarded bool
	loading   bool
}

// handle is what the cache returns from Pack in place of the tensor — the
// identifier registered on the computation graph. It is one pointer, so
// it converts to autograd.Packed without allocating.
type handle struct{ rec *record }

// StepIO summarizes the cache's traffic for one step.
type StepIO struct {
	Offloaded units.Bytes
	Kept      units.Bytes
	Forwarded units.Bytes
	Reloaded  units.Bytes
	Packs     int64
	DedupHits int64
	Leaked    int64
}

// TensorCache is SSDTrain's central component: an autograd.Hooks
// implementation that manages activation offloading and reloading.
type TensorCache struct {
	cfg Config
	rt  *autograd.Runtime
	off *TieredOffloader
	ids *IDSource

	// Per-micro-batch state (the paper's per-micro-batch records, ② in
	// Fig 2).
	curMB       int
	recs        map[TensorID]*record
	moduleOrder []*autograd.Module
	moduleIndex map[*autograd.Module]int
	// modHead holds, for each module of moduleOrder, the last record
	// packed in it: the head of that module's record list.
	modHead     []*record
	offloadedMB units.Bytes

	// stepRecs accumulates all records of the step for the end-of-step
	// sweep.
	stepRecs []map[TensorID]*record

	// keepLast marks modules whose activations stay in GPU memory,
	// learned from the previous forward order.
	keepLast  map[*autograd.Module]bool
	prevOrder []*autograd.Module
	// spareOrder is the retired forward-order buffer prevOrder displaced;
	// the next micro-batch records into it, so order tracking rotates
	// through two buffers instead of allocating one per micro-batch.
	spareOrder []*autograd.Module

	// Recycling pools: every step churns through the same population of
	// records, per-micro-batch record maps and reload buffers, so the
	// end-of-step sweep returns them here instead of to the garbage
	// collector and the steady-state step allocates (almost) nothing.
	recPool  []*record
	freeRecs []map[TensorID]*record
	reloads  []*tensor.Tensor
	// recHint is the records a micro-batch makes at most (Footprint): it
	// sizes each record map and each slab of records.
	recHint int
	// recSlab and reloadSlab are where new records and reload buffers
	// come from when the pools run dry, a slab at a time (newRecord,
	// newReload).
	recSlab    []record
	reloadSlab tensor.Slab

	scopeStack []*autograd.Module
	inBackward bool
	dedupSalt  int64

	cur    StepIO
	last   StepIO
	totals StepIO

	// err is the first offload error the cache hit; the step completes
	// with degraded placement and the harness surfaces the error at the
	// step boundary.
	err error
}

// NewTensorCache builds a cache bound to a runtime and a tier stack.
func NewTensorCache(cfg Config) *TensorCache {
	cfg = cfg.withDefaults()
	if cfg.Runtime == nil || cfg.Offloader == nil {
		panic("core: cache requires a runtime and an offloader")
	}
	f := cfg.Footprint
	return &TensorCache{
		cfg:         cfg,
		rt:          cfg.Runtime,
		off:         cfg.Offloader,
		ids:         NewIDSource(),
		keepLast:    make(map[*autograd.Module]bool),
		recHint:     f.Saved,
		moduleIndex: make(map[*autograd.Module]int, f.Blocks),
		prevOrder:   make([]*autograd.Module, 0, f.Blocks),
		spareOrder:  make([]*autograd.Module, 0, f.Blocks),
		modHead:     make([]*record, 0, f.Blocks),
	}
}

// Reset rewinds the cache for a new measurement on a recycled arena under
// a freshly planned offload budget. All per-run state — records, module
// orders, the learned keep-last set, error latches, I/O totals and the
// stamp clock — returns to the just-constructed state; the recycling
// pools and map buckets survive, which is what makes a reused cache
// cheaper than a new one. The caller must have reset the
// previously stamped storages in place (the ID clock restarts) and must
// re-register the run's weights afterwards.
func (c *TensorCache) Reset(budget units.Bytes) {
	c.recycleStepState()
	c.cfg.Budget = budget
	c.ids.Reset()
	c.curMB = 0
	clear(c.moduleIndex)
	// Both forward-order buffers survive, emptied: between steps
	// moduleOrder is prevOrder and spareOrder holds the other buffer.
	c.moduleOrder, c.prevOrder, c.spareOrder = nil, c.prevOrder[:0], c.spareOrder[:0]
	c.modHead = c.modHead[:0]
	c.offloadedMB = 0
	clear(c.keepLast)
	c.scopeStack = c.scopeStack[:0]
	c.inBackward = false
	c.dedupSalt = 0
	c.cur, c.last, c.totals = StepIO{}, StepIO{}, StepIO{}
	c.err = nil
}

// RegisterWeights stamps the parameters before training. The pack hook
// skips a weight by its flag, which every parameter and every view of
// one carries (§III-C1), so the stamps mark nothing: the weights take the
// clock's first values so that every activation's TensorID, which names
// its offload file and labels its trace spans, starts after them (the
// Chrome trace golden pins those IDs).
func (c *TensorCache) RegisterWeights(ws []*tensor.Tensor) {
	for _, w := range ws {
		c.ids.GetID(w)
	}
}

func (c *TensorCache) curScope() *autograd.Module {
	if len(c.scopeStack) == 0 {
		return nil
	}
	return c.scopeStack[len(c.scopeStack)-1]
}

// Phase implements autograd.Hooks: the scheduler hints (③④ in Fig 2).
func (c *TensorCache) Phase(ev autograd.PhaseEvent, mb int, hostNow time.Duration) {
	switch ev {
	case autograd.PhaseStepStart:
		c.cur = StepIO{}
		c.stepRecs = c.stepRecs[:0]
	case autograd.PhaseForward:
		// Micro-batch switch (② in Fig 2): fresh record set. Maps and
		// order buffers are recycled, not reallocated — the step's record
		// population is the same every iteration.
		c.inBackward = false
		c.curMB = mb
		if c.recs != nil {
			c.stepRecs = append(c.stepRecs, c.recs)
		}
		c.recs = c.popRecMap()
		clear(c.moduleIndex)
		c.modHead = c.modHead[:0]
		c.moduleOrder = c.spareOrder[:0]
		c.spareOrder = nil
		c.offloadedMB = 0
		// Learn the keep-last set from the previous forward order.
		clear(c.keepLast)
		for i := 0; i < c.cfg.KeepLastModules && i < len(c.prevOrder); i++ {
			c.keepLast[c.prevOrder[len(c.prevOrder)-1-i]] = true
		}
	case autograd.PhaseBackward:
		c.inBackward = true
		// The displaced previous order becomes the next micro-batch's
		// recording buffer; keepLast above reads prevOrder before the swap
		// ever reuses it.
		c.spareOrder = c.prevOrder[:0]
		c.prevOrder = c.moduleOrder
	case autograd.PhaseStepEnd:
		c.sweep(hostNow)
	}
}

// popRecMap returns a cleared record map from the pool, or a fresh one.
func (c *TensorCache) popRecMap() map[TensorID]*record {
	if n := len(c.freeRecs); n > 0 {
		m := c.freeRecs[n-1]
		c.freeRecs[n-1] = nil
		c.freeRecs = c.freeRecs[:n-1]
		return m
	}
	return make(map[TensorID]*record, c.recHint)
}

// newRecord returns a zeroed record from the pool or, when the pool is
// dry, from the record slab, which it refills with room for a
// micro-batch's records.
func (c *TensorCache) newRecord() *record {
	if n := len(c.recPool); n > 0 {
		rec := c.recPool[n-1]
		c.recPool[n-1] = nil
		c.recPool = c.recPool[:n-1]
		return rec
	}
	if len(c.recSlab) == 0 {
		c.recSlab = make([]record, max(c.recHint, 1))
		// The pool's capacity counts every record made, so the sweep that
		// pools them all never grows it.
		c.recPool = slices.Grow(c.recPool, cap(c.recPool)+len(c.recSlab))
	}
	rec := &c.recSlab[0]
	c.recSlab = c.recSlab[1:]
	return rec
}

// recycleRecord zeroes a fully processed record and pools it, salvaging
// its reload buffer for the next step.
func (c *TensorCache) recycleRecord(rec *record) {
	if rec.loaded != nil {
		c.reloads = append(c.reloads, rec.loaded)
	}
	*rec = record{}
	c.recPool = append(c.recPool, rec)
}

// newReload returns a reload buffer for t: a pooled buffer of any shape,
// re-initialized as a fresh tensor shaped like t and carrying t's name
// (tensor.Recycle), or, when the pool is dry, one from the reload slab.
// A dry pool refills the slab with exactly the buffers the micro-batch
// is now bound to load: every record offloaded and neither forwarded
// nor loading whose store finished by ready (from here on the host can
// only load it), or every such record under NoForwarding. So a buffer
// the budget never needs is never allocated. Everything the simulation
// observes — storage size, shape, dtype, payload — is indistinguishable
// from a fresh buffer.
func (c *TensorCache) newReload(t *tensor.Tensor, ready time.Duration) *tensor.Tensor {
	if n := len(c.reloads); n > 0 {
		buf := c.reloads[n-1]
		c.reloads[n-1] = nil
		c.reloads = c.reloads[:n-1]
		buf.Recycle(t.Name(), t.Shape(), t.DType())
		return buf
	}
	if c.reloadSlab.Len() == 0 {
		bound := 0
		for _, rec := range c.recs {
			if rec.offloaded && !rec.forwarded && !rec.loading && (c.cfg.NoForwarding || rec.storeFinish <= ready) {
				bound++
			}
		}
		c.reloadSlab.Reserve(bound)
		// The pool's capacity counts every buffer made, so the sweep that
		// pools them all never grows it.
		c.reloads = slices.Grow(c.reloads, cap(c.reloads)+bound)
	}
	return c.reloadSlab.New(t.Name(), t.Shape(), t.DType(), tensor.GPU)
}

// recycleStepState drains any outstanding per-step record maps into the
// pools without leak accounting (used by Reset after an aborted run; the
// end-of-step sweep recycles inline with its leak pass).
func (c *TensorCache) recycleStepState() {
	if c.recs != nil {
		c.stepRecs = append(c.stepRecs, c.recs)
	}
	for _, m := range c.stepRecs {
		for _, rec := range m {
			c.recycleRecord(rec)
		}
		clear(m)
		c.freeRecs = append(c.freeRecs, m)
	}
	c.stepRecs = c.stepRecs[:0]
	c.recs = nil
}

// ForwardPre implements autograd.Hooks: push the module scope and record
// the forward order.
func (c *TensorCache) ForwardPre(m *autograd.Module, hostNow time.Duration) {
	c.scopeStack = append(c.scopeStack, m)
	if _, ok := c.moduleIndex[m]; !ok {
		c.moduleIndex[m] = len(c.moduleOrder)
		c.moduleOrder = append(c.moduleOrder, m)
		c.modHead = append(c.modHead, nil)
	}
}

// ForwardPost implements autograd.Hooks: pop the module scope.
func (c *TensorCache) ForwardPost(m *autograd.Module, hostNow time.Duration) {
	c.popScope(m)
}

func (c *TensorCache) popScope(m *autograd.Module) {
	if n := len(c.scopeStack); n > 0 && c.scopeStack[n-1] == m {
		c.scopeStack = c.scopeStack[:n-1]
	}
}

// BackwardPre implements autograd.Hooks: entering a module's backward
// triggers prefetching of the upcoming modules' activations in reverse
// forward order (⑤ in Fig 2).
func (c *TensorCache) BackwardPre(m *autograd.Module, hostNow time.Duration) {
	c.scopeStack = append(c.scopeStack, m)
	idx, ok := c.moduleIndex[m]
	if !ok {
		return
	}
	for k := 1; k <= c.cfg.PrefetchAhead; k++ {
		j := idx - k
		if j < 0 {
			break
		}
		// Within a module, backward consumes tensors in reverse pack
		// order, so loads are issued in reverse too: the first-needed
		// tensor leads the FIFO queue.
		for rec := c.modHead[j]; rec != nil; rec = rec.prev {
			c.prefetch(rec, hostNow)
		}
	}
}

// BackwardPost implements autograd.Hooks.
func (c *TensorCache) BackwardPost(m *autograd.Module, hostNow time.Duration) {
	c.popScope(m)
}

// prefetch brings one offloaded record on the way back to GPU memory: if
// the store is still in flight the in-memory reference is forwarded
// instead of reading the SSD (§III-C2's data forwarding).
func (c *TensorCache) prefetch(rec *record, hostNow time.Duration) {
	if !rec.offloaded || rec.forwarded || rec.loading {
		return
	}
	if hostNow < rec.storeFinish {
		if c.cfg.NoForwarding {
			// Ablation: wait out the store, then read it back.
			c.issueLoad(rec, rec.storeFinish)
			return
		}
		c.forward(rec)
		return
	}
	c.issueLoad(rec, hostNow)
}

// forward marks a record as served from its in-flight in-memory copy.
func (c *TensorCache) forward(rec *record) {
	rec.forwarded = true
	c.cur.Forwarded += rec.bytes
	c.rt.Counters.Add(trace.CacheForwardHits, 1)
}

// fail records the first offload error; later errors are usually
// cascades of the first.
func (c *TensorCache) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// Err returns the first store/load error the cache hit (nil when the
// step's I/O all succeeded).
func (c *TensorCache) Err() error { return c.err }

// issueLoad starts the SSD read and allocates the reload buffer. The
// original reference is dropped as of the store's completion.
func (c *TensorCache) issueLoad(rec *record, ready time.Duration) {
	c.releaseOriginal(rec)
	start, finish, data, err := c.off.Load(rec.id, ready)
	if err != nil {
		// The target lost the block (an executor or offloader bug): record
		// the error and synthesize an instant load so the step can finish
		// deterministically before the harness aborts the run.
		c.fail(err)
		start, finish, data = ready, ready, nil
		c.rt.Counters.Add(trace.CacheLoadErrors, 1)
	}
	buf := c.newReload(rec.t, ready)
	if data != nil {
		buf.Storage().SetData(data)
		if c.cfg.Verify {
			if got := buf.Storage().Checksum(); got != rec.checksum {
				panic(fmt.Sprintf("core: reload checksum mismatch for %s: %08x != %08x", rec.id, got, rec.checksum))
			}
		}
	}
	c.rt.Life.Alloc(start, buf.Storage(), gpu.ClassActivations)
	rec.loading = true
	rec.loadStart, rec.loadFinish = start, finish
	rec.loaded = buf
	c.cur.Reloaded += rec.bytes
	c.rt.Counters.Add(trace.CacheLoads, 1)
}

// releaseOriginal drops the cache's reference to the original tensor as of
// the store's completion time.
func (c *TensorCache) releaseOriginal(rec *record) {
	if rec.released {
		return
	}
	rec.released = true
	c.rt.Life.Release(rec.t.Storage(), rec.storeFinish)
}

// Pack implements autograd.Hooks — Alg. 1's pack_hook.
func (c *TensorCache) Pack(t *tensor.Tensor, producedAt, hostNow time.Duration) autograd.Packed {
	c.cur.Packs++
	c.rt.Counters.Add(trace.CachePacks, 1)
	// Early returns (Alg. 1 line 2): weights, CPU tensors, small tensors.
	if t.IsCPU() {
		return t
	}
	if t.IsWeight() {
		c.rt.Counters.Add(trace.CacheWeightSkips, 1)
		return t
	}
	if t.NumElems() < minElems {
		c.rt.Counters.Add(trace.CacheSmallSkips, 1)
		return t
	}

	id := c.ids.GetID(t)
	if c.cfg.NoDedup {
		// Ablation: address-style identity — every registration is a new
		// record, so shared storages are stored (and loaded) repeatedly.
		// Real stamps are positive, so a negative per-registration stamp
		// can never collide with a deduplicated ID.
		c.dedupSalt++
		id.Stamp = -c.dedupSalt
	} else if rec, ok := c.recs[id]; ok {
		// Duplicate registration of the same storage+shape: a single
		// record and a single offload I/O (§III-C1).
		rec.refs++
		c.cur.DedupHits++
		c.rt.Counters.Add(trace.CacheDedupHits, 1)
		return handle{rec}
	}

	rec := c.newRecord()
	rec.id = id
	rec.mb = c.curMB
	rec.bytes = t.Bytes()
	rec.scope = c.curScope()
	rec.t = t
	rec.refs = 1
	c.recs[id] = rec
	if j, ok := c.moduleIndex[rec.scope]; ok {
		rec.prev, c.modHead[j] = c.modHead[j], rec
	}

	keep := c.inBackward || c.keepLast[rec.scope] ||
		c.offloadedMB >= c.cfg.Budget
	c.rt.Life.Retain(t.Storage())
	if keep {
		// Alg. 1 line 6: keep_in_gpu_memory.
		c.cur.Kept += rec.bytes
		c.rt.Counters.Add(trace.CacheKeeps, 1)
	} else {
		// Alg. 1 line 7: offload. The store cannot begin before the
		// producing kernel finishes.
		checksum := t.Storage().Checksum()
		start, finish, err := c.off.Store(id, t, producedAt)
		if err != nil {
			// The target refused the tensor (e.g. pinned-pool overflow):
			// keep it resident so the step stays consistent, and surface
			// the error at the step boundary.
			c.fail(err)
			c.cur.Kept += rec.bytes
			c.rt.Counters.Add(trace.CacheStoreErrors, 1)
		} else {
			rec.offloaded = true
			rec.checksum = checksum
			rec.storeStart, rec.storeFinish = start, finish
			c.offloadedMB += rec.bytes
			c.cur.Offloaded += rec.bytes
			c.rt.Counters.Add(trace.CacheStores, 1)
		}
	}
	return handle{rec}
}

// Unpack implements autograd.Hooks — Alg. 1's unpack_hook. It returns the
// tensor and the virtual time at which its data is resident.
func (c *TensorCache) Unpack(p autograd.Packed, hostNow time.Duration) (*tensor.Tensor, time.Duration) {
	if t, ok := p.(*tensor.Tensor); ok {
		// Alg. 1 line 10: raw tensors pass straight through.
		return t, hostNow
	}
	rec := p.(handle).rec
	switch {
	case !rec.offloaded || rec.forwarded:
		return rec.t, hostNow
	case rec.loading:
		ready := rec.loadFinish
		if hostNow > ready {
			ready = hostNow
		}
		return rec.loaded, ready
	case hostNow < rec.storeFinish:
		if c.cfg.NoForwarding {
			// Ablation: serialize behind the store, then demand-load.
			c.issueLoad(rec, rec.storeFinish)
			c.rt.Counters.Add(trace.CacheDemandLoads, 1)
			return rec.loaded, rec.loadFinish
		}
		// Data forwarding at unpack time: the store has not finished, so
		// the in-memory copy is still valid — skip the SSD read.
		c.forward(rec)
		return rec.t, hostNow
	default:
		// Not prefetched (e.g. prefetching disabled): demand load. The
		// caller blocks until loadFinish.
		c.issueLoad(rec, hostNow)
		c.rt.Counters.Add(trace.CacheDemandLoads, 1)
		return rec.loaded, rec.loadFinish
	}
}

// Consumed implements autograd.Hooks: the backward consumer of p finished.
// On the last consumer the cache drops whatever reference it still holds.
func (c *TensorCache) Consumed(p autograd.Packed, at time.Duration) {
	h, ok := p.(handle)
	if !ok {
		return
	}
	rec := h.rec
	rec.consumed++
	if rec.consumed < rec.refs {
		return
	}
	c.finishRecord(rec, at)
}

// finishRecord releases the cache's references for a fully consumed
// record and deletes its offload file.
func (c *TensorCache) finishRecord(rec *record, at time.Duration) {
	switch {
	case !rec.offloaded:
		// Kept in GPU memory until its backward use completed.
		c.rt.Life.Release(rec.t.Storage(), at)
	case rec.forwarded:
		// Forwarded: the original stays until both the consumer and the
		// still-running store are done.
		rel := at
		if rec.storeFinish > rel {
			rel = rec.storeFinish
		}
		rec.released = true
		c.rt.Life.Release(rec.t.Storage(), rel)
		c.off.Delete(rec.id)
	default:
		// Reloaded from SSD: free the reload buffer; the original was
		// released when the store completed.
		if rec.loaded != nil {
			c.rt.Life.Release(rec.loaded.Storage(), at)
		}
		c.off.Delete(rec.id)
	}
}

// sweep closes out the step in one pass over the step's record maps: any
// record that was never fully consumed (which indicates an executor bug
// or an aborted step) has its references released and is counted as
// leaked, and every record and map is recycled into the pools for the
// next step.
func (c *TensorCache) sweep(at time.Duration) {
	if c.recs != nil {
		c.stepRecs = append(c.stepRecs, c.recs)
	}
	for _, m := range c.stepRecs {
		for _, rec := range m {
			if rec.consumed < rec.refs {
				c.cur.Leaked++
				c.rt.Counters.Add(trace.CacheLeaks, 1)
				if rec.offloaded && !rec.forwarded && rec.loaded == nil {
					c.releaseOriginal(rec)
					c.off.Delete(rec.id)
				} else {
					c.finishRecord(rec, at)
				}
			}
			c.recycleRecord(rec)
		}
		clear(m)
		c.freeRecs = append(c.freeRecs, m)
	}
	c.stepRecs = c.stepRecs[:0]
	c.recs = nil
	c.last = c.cur
	c.totals.Offloaded += c.cur.Offloaded
	c.totals.Kept += c.cur.Kept
	c.totals.Forwarded += c.cur.Forwarded
	c.totals.Reloaded += c.cur.Reloaded
	c.totals.Packs += c.cur.Packs
	c.totals.DedupHits += c.cur.DedupHits
	c.totals.Leaked += c.cur.Leaked
}

// HostCost implements autograd.Hooks.
func (c *TensorCache) HostCost() time.Duration { return c.cfg.HostCost }

// LastStep returns the completed step's I/O summary.
func (c *TensorCache) LastStep() StepIO { return c.last }

// Totals returns cumulative I/O across steps.
func (c *TensorCache) Totals() StepIO { return c.totals }

var _ autograd.Hooks = (*TensorCache)(nil)
