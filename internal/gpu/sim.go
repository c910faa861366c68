package gpu

import (
	"fmt"
	"time"

	"github.com/bricklab/brick/internal/core"
	"github.com/bricklab/brick/internal/grid"
	"github.com/bricklab/brick/internal/layout"
	"github.com/bricklab/brick/internal/mpi"
	"github.com/bricklab/brick/internal/netmodel"
	"github.com/bricklab/brick/internal/stencil"
)

// Strategy selects a GPU communication implementation from the paper's V1
// experiment.
type Strategy int

// The four evaluated strategies.
const (
	// LayoutCA: brick layout in device memory, CUDA-Aware MPI with
	// GPUDirect RDMA (no host staging, no page faults).
	LayoutCA Strategy = iota
	// LayoutUM: brick layout in unified memory; MPI runs on the host and
	// pages migrate on demand. Communicated regions are not page-aligned,
	// so neighboring interior data shares their pages.
	LayoutUM
	// MemMapUM: memory-mapped views in unified memory; one padded,
	// page-aligned message per neighbor.
	MemMapUM
	// TypesUM: lexicographic array in unified memory exchanged with MPI
	// derived datatypes (the paper's slowest configuration).
	TypesUM
	// StagedArray: the pre-CUDA-Aware practice the paper's introduction
	// describes — packing on the CPU requires moving the entire subdomain
	// between device and host around every exchange (Table 3's "manual
	// CPU-GPU data movement: high").
	StagedArray
)

func (s Strategy) String() string {
	switch s {
	case LayoutCA:
		return "LayoutCA"
	case LayoutUM:
		return "LayoutUM"
	case MemMapUM:
		return "MemMapUM"
	case TypesUM:
		return "MPI_TypesUM"
	case StagedArray:
		return "Staged"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Config describes one simulated GPU rank.
type Config struct {
	Strategy Strategy
	Dom      [3]int
	Ghost    int
	Shape    core.Shape
	Order    []layout.Set
	Machine  netmodel.Machine
	Spec     DeviceSpec
	Stencil  stencil.Stencil
}

// CommCost is the modeled cost of one exchange.
type CommCost struct {
	Link   time.Duration // network / GPUDirect transfer time
	Fault  time.Duration // unified-memory page migrations
	Engine time.Duration // datatype-engine per-element overhead
	Msgs   int
	Data   int64 // payload bytes sent
	Wire   int64 // bytes on the wire including padding
}

// Total returns the summed modeled communication time.
func (c CommCost) Total() time.Duration { return c.Link + c.Fault + c.Engine }

// Sim is one GPU rank executing timesteps functionally (real data movement
// through the in-process MPI) while charging modeled time.
type Sim struct {
	Cfg Config
	Dev *Device

	// brick-based strategies
	dec  *core.BrickDecomp
	bs   *core.BrickStorage
	info *core.BrickInfo
	ex   *core.BrickExchanger
	lx   *core.Engine // LayoutCA / LayoutUM
	ev   *core.ExchangeView
	pt   *PageTable

	// TypesUM / StagedArray
	g  [2]*grid.Grid
	gx [2]*grid.TypesExchanger
	px [2]*grid.PackExchanger

	cur int // current source field / grid
}

// NewSim builds a simulated GPU rank on the given Cartesian topology.
func NewSim(cart *mpi.Cart, cfg Config) (*Sim, error) {
	s := &Sim{Cfg: cfg, Dev: NewDevice(cfg.Spec, cfg.Machine)}
	if cfg.Strategy == StagedArray {
		s.g[0] = grid.New(cfg.Dom, cfg.Ghost)
		s.g[1] = grid.New(cfg.Dom, cfg.Ghost)
		s.px[0] = grid.NewPackExchanger(s.g[0], cart)
		s.px[1] = grid.NewPackExchanger(s.g[1], cart)
		return s, nil
	}
	if cfg.Strategy == TypesUM {
		s.g[0] = grid.New(cfg.Dom, cfg.Ghost)
		s.g[1] = grid.New(cfg.Dom, cfg.Ghost)
		s.gx[0] = grid.NewTypesExchanger(s.g[0], cart)
		s.gx[1] = grid.NewTypesExchanger(s.g[1], cart)
		s.pt = NewPageTable(s.Dev, 8*len(s.g[0].Data))
		return s, nil
	}
	var opts []core.Option
	if cfg.Strategy == MemMapUM {
		opts = append(opts, core.WithPageAlignment(cfg.Spec.PageSize))
	}
	dec, err := core.NewBrickDecomp(cfg.Shape, cfg.Dom, cfg.Ghost, 2, cfg.Order, opts...)
	if err != nil {
		return nil, err
	}
	s.dec = dec
	switch cfg.Strategy {
	case MemMapUM:
		if s.bs, err = dec.MmapAllocate(); err != nil {
			return nil, err
		}
	default:
		s.bs = dec.Allocate()
	}
	s.info = dec.BrickInfo()
	s.ex = core.NewExchanger(dec, cart)
	if cfg.Strategy == MemMapUM {
		if s.ev, err = core.NewExchangeView(s.ex, s.bs); err != nil {
			return nil, err
		}
	} else {
		s.lx = core.NewLayoutExchange(s.ex, s.bs)
	}
	if cfg.Strategy != LayoutCA {
		s.pt = NewPageTable(s.Dev, 8*len(s.bs.Data))
	}
	return s, nil
}

// Close releases exchange endpoints, views, and arena storage.
func (s *Sim) Close() error {
	if s.ev != nil {
		s.ev.Close()
	}
	if s.lx != nil {
		s.lx.Close()
	}
	for i := range s.g {
		if s.px[i] != nil {
			s.px[i].Close()
		}
		if s.gx[i] != nil {
			s.gx[i].Close()
		}
	}
	if s.bs != nil {
		return s.bs.Close()
	}
	return nil
}

// Init fills the domain of the current source buffer via f(x,y,z) in
// domain-local element coordinates.
func (s *Sim) Init(f func(x, y, z int) float64) {
	g := s.Cfg.Ghost
	for z := 0; z < s.Cfg.Dom[2]; z++ {
		for y := 0; y < s.Cfg.Dom[1]; y++ {
			for x := 0; x < s.Cfg.Dom[0]; x++ {
				s.SetElem(x+g, y+g, z+g, f(x, y, z))
			}
		}
	}
}

// gridBased reports whether the strategy stores data in a lexicographic
// array rather than bricks.
func (s *Sim) gridBased() bool {
	return s.Cfg.Strategy == TypesUM || s.Cfg.Strategy == StagedArray
}

// Elem reads an extended-coordinate element of the current source buffer.
func (s *Sim) Elem(i, j, k int) float64 {
	if s.gridBased() {
		return s.g[s.cur].At(i, j, k)
	}
	return s.dec.Elem(s.bs, s.cur, i, j, k)
}

// SetElem writes an extended-coordinate element of the current source buffer.
func (s *Sim) SetElem(i, j, k int, v float64) {
	if s.gridBased() {
		s.g[s.cur].Set(i, j, k, v)
		return
	}
	s.dec.SetElem(s.bs, s.cur, i, j, k, v)
}

// Exchange runs one real ghost-zone exchange and returns its modeled cost.
func (s *Sim) Exchange() CommCost {
	var c CommCost
	switch s.Cfg.Strategy {
	case StagedArray:
		// Move the whole extended subdomain D2H, pack-exchange on the host,
		// move it back H2D. The staging dominates: two full-array transfers
		// per exchange regardless of ghost volume.
		whole := 8 * len(s.g[s.cur].Data)
		c.Fault += s.Cfg.Machine.Cost(netmodel.HostDevice, whole) // D2H
		px := s.px[s.cur]
		px.Start()
		px.Complete()
		c.Engine += px.Timings().Pack // real measured packing on the host
		for _, dir := range layout.Regions(3) {
			lo, hi := s.g[s.cur].SendRegion(dir)
			n := 8 * grid.RegionCount(lo, hi)
			c.Link += s.Cfg.Machine.Cost(netmodel.Network, n)
			c.Msgs++
			c.Data += int64(n)
			c.Wire += int64(n)
		}
		c.Fault += s.Cfg.Machine.Cost(netmodel.HostDevice, whole) // H2D
	case TypesUM:
		// Fault in the regions the host-side datatype engine walks,
		// row-accurately (a strided walk touches each row's pages).
		for _, dir := range layout.Regions(3) {
			slo, shi := s.g[s.cur].SendRegion(dir)
			rlo, rhi := s.g[s.cur].RecvRegion(dir)
			c.Fault += s.faultRows(s.g[s.cur], slo, shi)
			c.Fault += s.faultRows(s.g[s.cur], rlo, rhi)
			n := 8 * grid.RegionCount(slo, shi)
			c.Link += s.Cfg.Machine.Cost(netmodel.Network, n)
			c.Msgs++
			c.Data += int64(n)
			c.Wire += int64(n)
			c.Engine += time.Duration(2*grid.RegionCount(slo, shi)) * s.Cfg.Machine.TypeElemCost
		}
		// Run the real exchange on the current buffer.
		s.gx[s.cur].Start()
		s.gx[s.cur].Complete()
	case LayoutCA:
		chunkBytes := 8 * s.bs.Chunk()
		for _, m := range s.dec.SendMessages() {
			if s.ex.NeighborRank(m.Dir) < 0 {
				continue
			}
			n := m.Span.Padded * chunkBytes
			c.Link += s.Cfg.Machine.Cost(netmodel.GPUDirect, n)
			c.Msgs++
			c.Data += int64(m.Span.NBricks * chunkBytes)
			c.Wire += int64(n)
		}
		s.lx.Exchange()
	case LayoutUM:
		chunkBytes := 8 * s.bs.Chunk()
		for _, m := range s.dec.SendMessages() {
			if s.ex.NeighborRank(m.Dir) < 0 {
				continue
			}
			n := m.Span.Padded * chunkBytes
			c.Link += s.Cfg.Machine.Cost(netmodel.Network, n)
			c.Msgs++
			c.Data += int64(m.Span.NBricks * chunkBytes)
			c.Wire += int64(n)
			c.Fault += s.pt.HostAccess(m.Span.Start*chunkBytes, n)
		}
		for _, m := range s.dec.RecvMessages() {
			if s.ex.NeighborRank(m.Dir) < 0 {
				continue
			}
			c.Fault += s.pt.HostAccess(m.Span.Start*chunkBytes, m.Span.Padded*chunkBytes)
		}
		s.lx.Exchange()
	case MemMapUM:
		chunkBytes := 8 * s.bs.Chunk()
		perDir := map[layout.Set]*CommCost{}
		for _, m := range s.dec.SendMessages() {
			if s.ex.NeighborRank(m.Dir) < 0 {
				continue
			}
			pc := perDir[m.Dir]
			if pc == nil {
				pc = &CommCost{}
				perDir[m.Dir] = pc
			}
			pc.Data += int64(m.Span.NBricks * chunkBytes)
			pc.Wire += int64(m.Span.Padded * chunkBytes)
			c.Fault += s.pt.HostAccess(m.Span.Start*chunkBytes, m.Span.Padded*chunkBytes)
		}
		for _, pc := range perDir {
			c.Link += s.Cfg.Machine.Cost(netmodel.Network, int(pc.Wire))
			c.Msgs++
			c.Data += pc.Data
			c.Wire += pc.Wire
		}
		for _, u := range s.dec.Order() {
			if s.ex.NeighborRank(u) < 0 {
				continue
			}
			grp := s.dec.GhostGroup(u)
			c.Fault += s.pt.HostAccess(grp.Start*chunkBytes, grp.Padded*chunkBytes)
		}
		s.ev.Exchange()
	}
	return c
}

// faultRows charges host faults for each contiguous row of a region.
func (s *Sim) faultRows(g *grid.Grid, lo, hi [3]int) time.Duration {
	var total time.Duration
	w := 8 * (hi[0] - lo[0])
	for k := lo[2]; k < hi[2]; k++ {
		for j := lo[1]; j < hi[1]; j++ {
			total += s.pt.HostAccess(8*g.Idx(lo[0], j, k), w)
		}
	}
	return total
}

// NetworkFloor returns the modeled minimum communication time for this
// subdomain: one message per neighbor carrying the unpadded ghost payload
// over the given link (the paper's Network / NetworkCA reference lines).
func NetworkFloor(dec *core.BrickDecomp, mach netmodel.Machine, kind netmodel.LinkKind) time.Duration {
	chunkBytes := 8 * dec.Fields() * dec.Shape().Vol()
	perDir := map[layout.Set]int{}
	for _, m := range dec.SendMessages() {
		perDir[m.Dir] += m.Span.NBricks * chunkBytes
	}
	var total time.Duration
	for _, n := range perDir {
		total += mach.Cost(kind, n)
	}
	return total
}

// Compute applies the stencil with the given ghost-expansion margin, swaps
// buffers, and returns the modeled kernel + fault time.
func (s *Sim) Compute(margin int) time.Duration {
	elems := (s.Cfg.Dom[0] + 2*margin) * (s.Cfg.Dom[1] + 2*margin) * (s.Cfg.Dom[2] + 2*margin)
	var fault time.Duration
	if s.pt != nil {
		// The GPU touches the whole working set; pages the host-side MPI
		// pulled away fault back in.
		if s.gridBased() {
			fault = s.pt.DeviceAccess(0, 8*len(s.g[s.cur].Data))
		} else {
			fault = s.pt.DeviceAccess(0, 8*len(s.bs.Data))
		}
	}
	if s.gridBased() {
		stencil.ApplyGrid(s.g[1-s.cur], s.g[s.cur], s.Cfg.Stencil, margin)
	} else {
		src := core.NewBrick(s.info, s.bs, s.cur)
		dst := core.NewBrick(s.info, s.bs, 1-s.cur)
		stencil.ApplyBricks(dst, src, s.dec, s.Cfg.Stencil, margin)
	}
	s.cur = 1 - s.cur
	kernel := s.Dev.Kernel(elems, s.Cfg.Stencil.Flops(), 16)
	return kernel + fault
}
