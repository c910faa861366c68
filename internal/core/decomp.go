package core

import (
	"fmt"
	"sort"

	"github.com/bricklab/brick/internal/layout"
)

// Span is a contiguous run of bricks in storage order. When the
// decomposition is page-aligned (WithPageAlignment), Padded additionally
// counts the trailing padding bricks that round the run up to a page
// multiple; Padded == NBricks otherwise.
type Span struct {
	Start   int // first brick index
	NBricks int // data bricks
	Padded  int // data + trailing padding bricks
}

// End returns one past the last data brick of the span.
func (s Span) End() int { return s.Start + s.NBricks }

// PaddedEnd returns one past the last brick including trailing padding.
func (s Span) PaddedEnd() int { return s.Start + s.Padded }

// ghostKey identifies one sub-block of a ghost group: the part of ghost
// group U that is filled by the sending neighbor's surface region r(T).
type ghostKey struct {
	U, T layout.Set
}

// MsgSpec describes one point-to-point message of the exchange: a
// contiguous run of brick chunks and the neighbor direction it travels
// to (sends) or from (receives). Tag is unique per directed neighbor pair
// even on tiny periodic grids where one rank is a neighbor in several
// directions.
type MsgSpec struct {
	Dir  layout.Set // neighbor direction (destination for sends, source for receives)
	Tag  int
	Span Span
}

// BrickDecomp decomposes one rank's subdomain into fine-grained bricks with
// a communication-optimized physical order: interior bricks first, then the
// surface regions in layout order, then the ghost regions grouped by
// sending neighbor and mirrored to the sender's surface order, which makes
// every message of the exchange a single contiguous run of bricks on both
// ends — the pack-free property.
type BrickDecomp struct {
	shape  Shape
	dom    [3]int // subdomain extent in elements (i,j,k)
	ghost  int    // ghost width in elements (all axes)
	order  []layout.Set
	fields int

	n  [3]int // total bricks per axis, including ghost
	s  [3]int // domain bricks per axis
	g  int    // ghost bricks per axis side
	nb int    // total brick slots, including padding bricks

	pageBytes   int  // page size for region alignment; 0 = no padding
	alignChunks int  // region starts/ends align to this many brick chunks
	padBricks   int  // total padding brick slots inserted
	perRegion   bool // one message per (region, destination) pair

	gridToIdx []int32
	idxToGrid [][3]int16

	interior   Span
	surface    map[layout.Set]Span
	ghostSub   map[ghostKey]Span
	ghostGroup map[layout.Set]Span

	sendMsgs []MsgSpec
	recvMsgs []MsgSpec
}

// Option customizes a BrickDecomp.
type Option func(*BrickDecomp)

// WithPageAlignment pads every communication region (surface regions and
// ghost sub-blocks) to a multiple of pageBytes, the paper's requirement for
// MemMap views. The padding bricks are transmitted with their regions, so
// the exchange moves extra bytes — exactly the network-transfer overhead the
// paper quantifies in Table 2 and Figure 18.
func WithPageAlignment(pageBytes int) Option {
	return func(d *BrickDecomp) { d.pageBytes = pageBytes }
}

// WithPerRegionMessages disables run merging: every surface region travels
// in its own message to each of its destinations, the paper's Basic
// approach (98 messages in 3D regardless of layout order).
func WithPerRegionMessages() Option {
	return func(d *BrickDecomp) { d.perRegion = true }
}

// NewBrickDecomp builds a decomposition of a dom[0]×dom[1]×dom[2]-element
// subdomain (i,j,k order) with the given ghost width, brick shape, number of
// interleaved fields, and surface layout order (e.g. layout.Surface3D() for
// the optimal 42-message exchange, or layout.Lexicographic(3) for the Basic
// baseline). Ghost width must be a multiple of the brick extent on every
// axis, and each domain axis must hold at least two ghost widths of bricks.
func NewBrickDecomp(shape Shape, dom [3]int, ghost, fields int, order []layout.Set, opts ...Option) (*BrickDecomp, error) {
	if err := shape.validate(); err != nil {
		return nil, err
	}
	if fields <= 0 {
		return nil, fmt.Errorf("core: fields must be positive")
	}
	if ghost <= 0 {
		return nil, fmt.Errorf("core: ghost width must be positive")
	}
	if err := layout.ValidateOrder(3, order); err != nil {
		return nil, err
	}
	d := &BrickDecomp{
		shape:  shape,
		dom:    dom,
		ghost:  ghost,
		order:  append([]layout.Set(nil), order...),
		fields: fields,
	}
	for _, opt := range opts {
		opt(d)
	}
	d.alignChunks = 1
	if d.pageBytes > 0 {
		if d.pageBytes%8 != 0 {
			return nil, fmt.Errorf("core: page size %d not a multiple of 8 bytes", d.pageBytes)
		}
		chunkBytes := 8 * fields * shape.Vol()
		d.alignChunks = lcm(chunkBytes, d.pageBytes) / chunkBytes
	}
	for a := 0; a < 3; a++ {
		if dom[a] <= 0 || dom[a]%shape[a] != 0 {
			return nil, fmt.Errorf("core: domain extent %d not a positive multiple of brick extent %d on axis %d", dom[a], shape[a], a)
		}
		if ghost%shape[a] != 0 {
			return nil, fmt.Errorf("core: ghost width %d not a multiple of brick extent %d on axis %d", ghost, shape[a], a)
		}
		d.s[a] = dom[a] / shape[a]
		ga := ghost / shape[a]
		if a == 0 {
			d.g = ga
		} else if ga != d.g {
			return nil, fmt.Errorf("core: ghost width spans %d bricks on axis %d but %d on axis 0; use a cubic brick or per-axis-consistent ghost", ga, a, d.g)
		}
		if d.s[a] < 2*d.g {
			return nil, fmt.Errorf("core: domain axis %d has %d bricks, need at least 2×ghost (%d)", a, d.s[a], 2*d.g)
		}
		d.n[a] = d.s[a] + 2*d.g
	}
	d.build()
	return d, nil
}

// classify returns the direction set of a brick-grid coordinate: ghost
// reports whether the brick lies outside the domain, and dirs identifies the
// ghost group (for ghost bricks) or surface region (for domain bricks; empty
// means interior).
func (d *BrickDecomp) classify(c [3]int) (dirs layout.Set, ghost bool) {
	var ghostDirs, surfDirs []int
	for a := 0; a < 3; a++ {
		lo, hi := d.g, d.g+d.s[a]
		switch {
		case c[a] < lo:
			ghostDirs = append(ghostDirs, -(a + 1))
		case c[a] >= hi:
			ghostDirs = append(ghostDirs, a+1)
		case c[a] < lo+d.g:
			surfDirs = append(surfDirs, -(a + 1))
		case c[a] >= hi-d.g:
			surfDirs = append(surfDirs, a+1)
		}
	}
	if len(ghostDirs) > 0 {
		return layout.FromDirs(ghostDirs...), true
	}
	return layout.FromDirs(surfDirs...), false
}

// ghostSubBlock returns, for a ghost brick in group U, the sending
// neighbor's surface region r(T) that this brick mirrors.
func (d *BrickDecomp) ghostSubBlock(c [3]int, u layout.Set) layout.Set {
	dirs := u.Opposite().Dirs()
	for a := 0; a < 3; a++ {
		if u.Axis(a+1) != 0 {
			continue // covered by the opposite of U
		}
		lo, hi := d.g, d.g+d.s[a]
		switch {
		case c[a] < lo+d.g:
			dirs = append(dirs, -(a + 1))
		case c[a] >= hi-d.g:
			dirs = append(dirs, a+1)
		}
	}
	return layout.FromDirs(dirs...)
}

func (d *BrickDecomp) gridLinear(c [3]int) int { return (c[2]*d.n[1]+c[1])*d.n[0] + c[0] }

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func lcm(a, b int) int { return a / gcd(a, b) * b }

// build assigns every brick a storage index following the communication-
// optimized order and derives region spans and message specs.
func (d *BrickDecomp) build() {
	total := d.n[0] * d.n[1] * d.n[2]
	d.gridToIdx = make([]int32, total)
	for i := range d.gridToIdx {
		d.gridToIdx[i] = NoBrick
	}

	// Bucket grid coordinates by region, in lexicographic coordinate order
	// (i fastest) within each bucket.
	interior := []([3]int){}
	surf := map[layout.Set][][3]int{}
	ghost := map[ghostKey][][3]int{}
	var c [3]int
	for c[2] = 0; c[2] < d.n[2]; c[2]++ {
		for c[1] = 0; c[1] < d.n[1]; c[1]++ {
			for c[0] = 0; c[0] < d.n[0]; c[0]++ {
				dirs, isGhost := d.classify(c)
				switch {
				case isGhost:
					k := ghostKey{U: dirs, T: d.ghostSubBlock(c, dirs)}
					ghost[k] = append(ghost[k], c)
				case dirs.Empty():
					interior = append(interior, c)
				default:
					surf[dirs] = append(surf[dirs], c)
				}
			}
		}
	}

	// Assign storage indices: interior, surface regions in layout order,
	// then ghost groups in layout order with sub-blocks mirroring the
	// sender's surface order. With page alignment, every region is padded
	// to a multiple of alignChunks brick slots; padding slots carry no grid
	// coordinate and travel with their region during exchange.
	d.surface = make(map[layout.Set]Span, len(d.order))
	d.ghostSub = make(map[ghostKey]Span)
	d.ghostGroup = make(map[layout.Set]Span, len(d.order))
	next := 0
	placed := 0
	place := func(coords [][3]int) Span {
		sp := Span{Start: next, NBricks: len(coords)}
		for _, cc := range coords {
			lin := d.gridLinear(cc)
			d.gridToIdx[lin] = int32(next)
			d.idxToGrid = append(d.idxToGrid, [3]int16{int16(cc[0]), int16(cc[1]), int16(cc[2])})
			next++
		}
		placed += len(coords)
		if len(coords) > 0 && next%d.alignChunks != 0 {
			pad := d.alignChunks - next%d.alignChunks
			for p := 0; p < pad; p++ {
				d.idxToGrid = append(d.idxToGrid, [3]int16{-1, -1, -1})
			}
			next += pad
			d.padBricks += pad
		}
		sp.Padded = next - sp.Start
		return sp
	}
	d.interior = place(interior)
	for _, t := range d.order {
		d.surface[t] = place(surf[t])
	}
	for _, u := range d.order {
		groupStart := next
		groupBricks := 0
		opp := u.Opposite()
		for _, t := range d.order {
			if !opp.SubsetOf(t) {
				continue
			}
			sub := place(ghost[ghostKey{U: u, T: t}])
			d.ghostSub[ghostKey{U: u, T: t}] = sub
			groupBricks += sub.NBricks
		}
		d.ghostGroup[u] = Span{Start: groupStart, NBricks: groupBricks, Padded: next - groupStart}
	}
	if placed != total {
		panic(fmt.Sprintf("core: placed %d of %d bricks", placed, total))
	}
	d.nb = next
	d.buildMessages()
}

// regionIndex maps each 3D direction set (six bits) to its position in
// layout.Regions(3), or -1: built once, because every compiled exchange
// makes a tag per message.
var regionIndex = func() (t [64]int8) {
	for i := range t {
		t[i] = -1
	}
	for i, r := range layout.Regions(3) {
		t[r] = int8(i)
	}
	return t
}()

// dirIndex returns a stable per-direction index used to build unique tags.
func dirIndex(s layout.Set) int {
	if s < layout.Set(len(regionIndex)) && regionIndex[s] >= 0 {
		return int(regionIndex[s])
	}
	panic(fmt.Sprintf("core: %v is not a 3D direction", s))
}

// tagStride spaces tags so that (direction, sequence) pairs are unique even
// when one rank is a neighbor in several directions (tiny periodic grids).
const tagStride = 64

func makeTag(senderDir layout.Set, k int) int {
	if k >= tagStride {
		panic("core: message sequence exceeds tag stride")
	}
	return dirIndex(senderDir)*tagStride + k
}

// buildMessages converts the layout's message grouping into concrete brick
// spans for sends (surface runs) and receives (ghost sub-block runs).
func (d *BrickDecomp) buildMessages() {
	var groups []layout.Message
	if d.perRegion {
		// Basic: one single-region message per (destination, region) pair,
		// ordered like GroupMessages output (by destination, then position).
		for _, nb := range layout.Regions(3) {
			for i, t := range d.order {
				if nb.SubsetOf(t) {
					groups = append(groups, layout.Message{To: nb, Start: i, Len: 1})
				}
			}
		}
	} else {
		groups = layout.GroupMessages(3, d.order)
	}
	// Per-destination sequence numbers in grouping order.
	seq := map[layout.Set]int{}
	// Sort groups by (destination, start) is NOT wanted: tags must follow
	// the grouping order per destination, which GroupMessages already
	// yields (sorted by destination, then start).
	for _, m := range groups {
		k := seq[m.To]
		seq[m.To]++
		first := d.surface[d.order[m.Start]]
		last := d.surface[d.order[m.Start+m.Len-1]]
		sp := Span{Start: first.Start, Padded: last.PaddedEnd() - first.Start}
		for _, t := range d.order[m.Start : m.Start+m.Len] {
			sp.NBricks += d.surface[t].NBricks
		}
		if sp.NBricks == 0 {
			continue // all regions empty at this subdomain size
		}
		d.sendMsgs = append(d.sendMsgs, MsgSpec{Dir: m.To, Tag: makeTag(m.To, k), Span: sp})
	}

	// Receives: the neighbor at direction U sends me its messages addressed
	// to its neighbor U.Opposite() (me). All ranks share the layout, so its
	// grouping equals mine: mirror my groups for destination U.Opposite()
	// into my ghost sub-blocks of group U.
	for _, u := range d.order {
		opp := u.Opposite()
		k := 0
		for _, m := range groups {
			if m.To != opp {
				continue
			}
			tag := makeTag(opp, k)
			k++
			var sp Span
			started := false
			for _, t := range d.order[m.Start : m.Start+m.Len] {
				sub, ok := d.ghostSub[ghostKey{U: u, T: t}]
				if !ok {
					panic(fmt.Sprintf("core: missing ghost sub-block U=%v T=%v", u, t))
				}
				if !started {
					sp.Start = sub.Start
					started = true
				} else if sub.NBricks > 0 && sub.Start != sp.Start+sp.Padded {
					panic(fmt.Sprintf("core: ghost sub-blocks not contiguous for U=%v run at %v", u, t))
				}
				sp.NBricks += sub.NBricks
				sp.Padded = sub.PaddedEnd() - sp.Start
			}
			if sp.NBricks == 0 {
				continue
			}
			d.recvMsgs = append(d.recvMsgs, MsgSpec{Dir: u, Tag: tag, Span: sp})
		}
	}
}

// Shape returns the brick shape.
func (d *BrickDecomp) Shape() Shape { return d.shape }

// Dom returns the subdomain extents in elements (i,j,k).
func (d *BrickDecomp) Dom() [3]int { return d.dom }

// Ghost returns the ghost width in elements.
func (d *BrickDecomp) Ghost() int { return d.ghost }

// Fields returns the number of interleaved fields.
func (d *BrickDecomp) Fields() int { return d.fields }

// Order returns the surface layout order in use.
func (d *BrickDecomp) Order() []layout.Set { return append([]layout.Set(nil), d.order...) }

// NumBricks returns the total brick slot count including ghost bricks and
// any page-alignment padding slots.
func (d *BrickDecomp) NumBricks() int { return d.nb }

// PadBricks returns the number of padding brick slots inserted for page
// alignment (0 without WithPageAlignment).
func (d *BrickDecomp) PadBricks() int { return d.padBricks }

// PageBytes returns the page size regions are aligned to (0 = unaligned).
func (d *BrickDecomp) PageBytes() int { return d.pageBytes }

// ExchangeBytes returns the bytes this rank sends per full exchange: data is
// the payload and wire includes page-alignment padding. The overhead ratio
// wire/data−1 is the paper's Table 2 "increased network transfer from
// padding".
func (d *BrickDecomp) ExchangeBytes() (data, wire int) {
	chunkBytes := 8 * d.fields * d.shape.Vol()
	for _, m := range d.sendMsgs {
		data += m.Span.NBricks * chunkBytes
		wire += m.Span.Padded * chunkBytes
	}
	return data, wire
}

// GridDim returns bricks per axis including ghost bricks.
func (d *BrickDecomp) GridDim() [3]int { return d.n }

// Interior returns the span of interior (non-surface domain) bricks.
func (d *BrickDecomp) Interior() Span { return d.interior }

// Surface returns the span of surface region r(t).
func (d *BrickDecomp) Surface(t layout.Set) Span { return d.surface[t] }

// GhostGroup returns the span of the ghost bricks filled by the neighbor at
// direction u. It is contiguous by construction.
func (d *BrickDecomp) GhostGroup(u layout.Set) Span { return d.ghostGroup[u] }

// SendMessages returns the outgoing message plan (one contiguous span each).
func (d *BrickDecomp) SendMessages() []MsgSpec { return append([]MsgSpec(nil), d.sendMsgs...) }

// RecvMessages returns the incoming message plan.
func (d *BrickDecomp) RecvMessages() []MsgSpec { return append([]MsgSpec(nil), d.recvMsgs...) }

// BrickIndex returns the storage index of the brick at grid coordinate c
// (brick units, ghost included), or -1 if outside the grid.
func (d *BrickDecomp) BrickIndex(c [3]int) int {
	for a := 0; a < 3; a++ {
		if c[a] < 0 || c[a] >= d.n[a] {
			return -1
		}
	}
	return int(d.gridToIdx[d.gridLinear(c)])
}

// BrickCoord returns the grid coordinate of storage brick idx, or
// {-1,-1,-1} for a page-alignment padding slot.
func (d *BrickDecomp) BrickCoord(idx int) [3]int {
	g := d.idxToGrid[idx]
	return [3]int{int(g[0]), int(g[1]), int(g[2])}
}

// DomainBricks returns the storage indices of all domain (interior +
// surface) bricks in ascending order. These are the bricks a stencil loop
// iterates over.
func (d *BrickDecomp) DomainBricks() []int {
	out := make([]int, 0, d.interior.NBricks+d.surfaceBrickCount())
	for b := d.interior.Start; b < d.interior.End(); b++ {
		out = append(out, b)
	}
	for _, t := range d.order {
		sp := d.surface[t]
		for b := sp.Start; b < sp.End(); b++ {
			out = append(out, b)
		}
	}
	sort.Ints(out)
	return out
}

func (d *BrickDecomp) surfaceBrickCount() int {
	n := 0
	for _, sp := range d.surface {
		n += sp.NBricks
	}
	return n
}

// BrickInfo builds the adjacency table for this decomposition. Grid-edge
// bricks keep NoBrick entries in outward directions; stencils with radius at
// most one brick never traverse them when applied to domain bricks.
func (d *BrickDecomp) BrickInfo() *BrickInfo {
	bi := NewBrickInfo(d.shape, d.nb)
	for idx := 0; idx < d.nb; idx++ {
		c := d.BrickCoord(idx)
		if c[0] < 0 {
			continue // padding slot: no grid position, no adjacency
		}
		for dk := -1; dk <= 1; dk++ {
			for dj := -1; dj <= 1; dj++ {
				for di := -1; di <= 1; di++ {
					nc := [3]int{c[0] + di, c[1] + dj, c[2] + dk}
					nb := d.BrickIndex(nc)
					if nb >= 0 {
						bi.SetAdjacency(idx, di, dj, dk, int32(nb))
					}
				}
			}
		}
	}
	return bi
}

// Allocate returns heap-backed storage sized for this decomposition.
func (d *BrickDecomp) Allocate() *BrickStorage {
	return NewBrickStorage(d.shape, d.nb, d.fields)
}

// MmapAllocate returns arena-backed storage suitable for MemMap views (the
// paper's mmap_alloc).
func (d *BrickDecomp) MmapAllocate() (*BrickStorage, error) {
	return NewMappedBrickStorage(d.shape, d.nb, d.fields)
}

// MmapAllocateUnmapped returns arena storage with mapping forced off, so
// every view over it is copy-based: the deterministic stand-in for a
// runtime shm failure, used by fault injection.
func (d *BrickDecomp) MmapAllocateUnmapped() (*BrickStorage, error) {
	return NewUnmappedBrickStorage(d.shape, d.nb, d.fields)
}
