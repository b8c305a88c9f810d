// Package cache models the private L1 data cache of a FlexTM core: a
// set-associative array whose lines carry the TMESI state machine of
// Figure 1 plus the A (alert) bit, backed by a small victim buffer, exactly
// as configured in Table 3(a) of the paper (32 KB, 2-way, 64-byte blocks,
// 32-entry victim buffer).
//
// The package holds state and data; the coherence protocol that drives
// transitions lives in internal/tmesi.
//
// The paper's flash operations (commit's TMI->M and TI->I, abort's
// TMI/TI->I, and clearing the A bits) are constant-time hardware clears of
// per-line bits. Here they visit only candidate sets plus the whole victim
// buffer. A line can enter a set as TMI, TI or alerted only through Insert,
// and can become so later only through the *Line a Lookup hit returns, so
// both calls mark the line's set in two per-cache bitmaps, one for
// speculative and one for alert candidates. A flash operation walks its
// bitmap in set order and zeroes it. Every other set holds no line the
// operation would change, so the result equals a walk of every line. A
// *Line must not be written after a flash operation that followed the call
// that returned it.
//
// A Lookup that misses its set scans the victim buffer only if a count kept
// per set, of the buffer entries whose tag maps to it, is not zero. The
// lines of all sets share one flat array, as do TagCache's entries, so a
// cache is built with a few allocations whatever its size. Insert returns
// its spills in a buffer the cache reuses, valid until the next Insert.
package cache

import (
	"fmt"
	"math/bits"

	"flextm/internal/memory"
)

// State is a TMESI cache-line state. The encoding follows Figure 1 of the
// paper: TMI is M-bit+T-bit ("transactional store buffered here"); TI is
// T-bit in the invalid state ("read a threatened line's committed value").
type State uint8

const (
	// Invalid: no valid copy.
	Invalid State = iota
	// Shared: clean, possibly multiple sharers.
	Shared
	// Exclusive: clean, sole copy.
	Exclusive
	// Modified: dirty, sole copy, non-speculative.
	Modified
	// TMI: speculatively written (TStore); invisible to remote readers
	// until commit. Reverts to Modified on commit, Invalid on abort.
	TMI
	// TI: holds the committed value of a line that some remote processor
	// has in TMI. Reverts to Invalid on commit or abort.
	TI
)

// String returns the conventional state name.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	case TMI:
		return "TMI"
	case TI:
		return "TI"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// Valid reports whether the state holds usable data for local reads.
func (s State) Valid() bool { return s != Invalid }

// Speculative reports whether the state is one of the PDI states that flash
// commit/abort must touch.
func (s State) Speculative() bool { return s == TMI || s == TI }

// Line is one cache line.
type Line struct {
	Tag   memory.LineAddr
	State State
	Alert bool // the AOU 'A' bit
	Data  memory.LineData
	lru   uint64
}

// Config fixes a cache's geometry.
type Config struct {
	Sets       int // number of sets (power of two)
	Ways       int
	VictimSize int // entries in the victim buffer; <0 means unbounded
	// UnboundedTMIVictim lets speculative (TMI) lines stay in the victim
	// buffer without bound while non-speculative lines obey VictimSize:
	// the "ideal infinite speculative buffer" of the Section 7.3 ablation.
	UnboundedTMIVictim bool
}

// DefaultL1Config is the paper's L1: 32 KB, 2-way, 64 B lines -> 256 sets,
// with a 32-entry victim buffer.
func DefaultL1Config() Config { return Config{Sets: 256, Ways: 2, VictimSize: 32} }

// Cache is a set-associative cache with a victim buffer. The zero value is
// not usable; call New.
type Cache struct {
	cfg    Config
	lines  []Line // Sets*Ways lines; set s is lines[s*Ways : (s+1)*Ways]
	victim []Line // FIFO order: victim[0] is oldest
	// victimsIn[s] counts the victim-buffer entries whose tag maps to set s.
	victimsIn []int32
	spills    []Line // Insert's reused return buffer
	clock     uint64
	// marks[w][k] has one bit for each of sets 64w..64w+63 that may hold
	// a line of flash kind k (specMarks: TMI or TI; alertMarks: the A bit)
	// since the last flash of that kind.
	marks [][2]uint64
}

// Flash kinds: which bit of a set's mark a flash operation consumes.
const (
	specMarks  = 0
	alertMarks = 1
)

// New returns an empty cache with the given geometry.
func New(cfg Config) *Cache {
	if cfg.Sets <= 0 || cfg.Sets&(cfg.Sets-1) != 0 || cfg.Ways <= 0 {
		panic("cache: invalid geometry")
	}
	return &Cache{
		cfg:       cfg,
		lines:     make([]Line, cfg.Sets*cfg.Ways),
		victimsIn: make([]int32, cfg.Sets),
		marks:     make([][2]uint64, (cfg.Sets+63)/64),
	}
}

func (c *Cache) setIndex(l memory.LineAddr) int {
	return int(uint64(l) & uint64(c.cfg.Sets-1))
}

// set returns the ways of set si.
func (c *Cache) set(si int) []Line {
	w := c.cfg.Ways
	return c.lines[si*w : si*w+w]
}

// mark records that set si hands out a *Line that may be made TMI, TI or
// alerted.
func (c *Cache) mark(si int) {
	m := &c.marks[si>>6]
	bit := uint64(1) << (si & 63)
	m[specMarks] |= bit
	m[alertMarks] |= bit
}

// Lookup returns the line holding l, or nil. A hit in the victim buffer
// counts; the line is not moved (the victim buffer is searched in parallel
// with the set in hardware). A hit in the set array makes the line its
// set's most recently used.
func (c *Cache) Lookup(l memory.LineAddr) *Line {
	si := c.setIndex(l)
	set := c.set(si)
	for i := range set {
		if set[i].State != Invalid && set[i].Tag == l {
			c.clock++
			set[i].lru = c.clock
			c.mark(si)
			return &set[i]
		}
	}
	if c.victimsIn[si] == 0 {
		return nil
	}
	for i := range c.victim {
		if c.victim[i].State != Invalid && c.victim[i].Tag == l {
			return &c.victim[i]
		}
	}
	return nil
}

// Insert places a new line into the cache, evicting as needed. The evicted
// set line (if any) moves to the victim buffer; the lines that fall off the
// victim buffer are returned, or nil when none does. The caller must write
// back their Modified data and spill their TMI lines to the overflow table.
// The returned slice is the cache's own buffer, valid until the next
// Insert. Insert panics if the line is already present (use Lookup first).
func (c *Cache) Insert(ln Line) []Line {
	if c.Lookup(ln.Tag) != nil {
		panic(fmt.Sprintf("cache: Insert of resident line %d", ln.Tag))
	}
	c.clock++
	ln.lru = c.clock
	si := c.setIndex(ln.Tag)
	c.mark(si)
	set := c.set(si)
	// Empty way?
	for i := range set {
		if set[i].State == Invalid {
			set[i] = ln
			return nil
		}
	}
	// Evict the LRU way to the victim buffer.
	vi := 0
	for i := range set {
		if set[i].lru < set[vi].lru {
			vi = i
		}
	}
	evicted := set[vi]
	set[vi] = ln
	return c.pushVictim(evicted)
}

func (c *Cache) pushVictim(ln Line) []Line {
	c.spills = c.spills[:0]
	if c.cfg.VictimSize == 0 && !(c.cfg.UnboundedTMIVictim && ln.State == TMI) {
		c.spills = append(c.spills, ln)
		return c.spills
	}
	c.victim = append(c.victim, ln)
	c.victimsIn[c.setIndex(ln.Tag)]++
	if c.cfg.VictimSize >= 0 {
		over := func() int {
			n := len(c.victim)
			if c.cfg.UnboundedTMIVictim {
				n = 0
				for _, v := range c.victim {
					if v.State != TMI {
						n++
					}
				}
			}
			return n
		}
		for over() > c.cfg.VictimSize {
			// Spill the oldest evictable entry.
			for i, v := range c.victim {
				if !c.cfg.UnboundedTMIVictim || v.State != TMI {
					c.spills = append(c.spills, v)
					c.victimsIn[c.setIndex(v.Tag)]--
					c.victim = append(c.victim[:i], c.victim[i+1:]...)
					break
				}
			}
		}
	}
	if len(c.spills) == 0 {
		return nil
	}
	return c.spills
}

// FlashCommit applies the CAS-Commit success transition to every line:
// TMI -> M (speculative data becomes the committed copy) and TI -> I.
// It returns the lines that were TMI (now M), sets ascending and then the
// victim buffer, so the protocol layer can fix up directory ownership.
func (c *Cache) FlashCommit() []memory.LineAddr {
	var committed []memory.LineAddr
	c.flash(specMarks, func(ln *Line) {
		switch ln.State {
		case TMI:
			ln.State = Modified
			committed = append(committed, ln.Tag)
		case TI:
			ln.State = Invalid
		}
	})
	return committed
}

// FlashAbort applies the abort transition to every line: TMI -> I
// (speculative data discarded) and TI -> I. It returns the number of lines
// dropped.
func (c *Cache) FlashAbort() int {
	n := 0
	c.flash(specMarks, func(ln *Line) {
		if ln.State.Speculative() {
			ln.State = Invalid
			n++
		}
	})
	return n
}

// TMILines returns the addresses of all TMI lines (used when the OS saves a
// descheduled transaction's speculative state into its overflow table).
func (c *Cache) TMILines() []memory.LineAddr {
	var out []memory.LineAddr
	c.forEach(func(ln *Line) {
		if ln.State == TMI {
			out = append(out, ln.Tag)
		}
	})
	return out
}

// ClearAlerts drops every A bit (used on abort/commit of the watched word's
// owner context).
func (c *Cache) ClearAlerts() {
	c.flash(alertMarks, func(ln *Line) { ln.Alert = false })
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

func (c *Cache) forEach(f func(*Line)) {
	for i := range c.lines {
		f(&c.lines[i])
	}
	c.eachVictim(f)
}

// flash applies f to every line of the sets marked for kind, clearing
// those marks, and then to the victim buffer.
func (c *Cache) flash(kind int, f func(*Line)) {
	for w := range c.marks {
		for word := c.marks[w][kind]; word != 0; word &= word - 1 {
			set := c.set(w<<6 | bits.TrailingZeros64(word))
			for i := range set {
				f(&set[i])
			}
		}
		c.marks[w][kind] = 0
	}
	c.eachVictim(f)
}

// eachVictim applies f to the victim buffer in FIFO order and drops the
// entries it leaves Invalid.
func (c *Cache) eachVictim(f func(*Line)) {
	live := c.victim[:0]
	for i := range c.victim {
		f(&c.victim[i])
		if c.victim[i].State != Invalid {
			live = append(live, c.victim[i])
		} else {
			c.victimsIn[c.setIndex(c.victim[i].Tag)]--
		}
	}
	c.victim = live
}

// TagCache is a tag-only set-associative cache used for the shared L2
// timing model: it answers hit/miss and tracks evictions but holds no data
// (data lives in the committed memory image).
type TagCache struct {
	entries []tagEntry // set s is entries[s*ways : (s+1)*ways]
	ways    int
	mask    uint64
	clock   uint64
}

type tagEntry struct {
	tag   memory.LineAddr
	valid bool
	lru   uint64
}

// NewTagCache returns a tag cache with the given geometry.
func NewTagCache(sets, ways int) *TagCache {
	if sets <= 0 || sets&(sets-1) != 0 || ways <= 0 {
		panic("cache: invalid tag cache geometry")
	}
	return &TagCache{entries: make([]tagEntry, sets*ways), ways: ways, mask: uint64(sets - 1)}
}

// Touch records an access to line l and reports whether it hit, along with
// any line evicted to make room.
func (t *TagCache) Touch(l memory.LineAddr) (hit bool, evicted memory.LineAddr, hasEvicted bool) {
	t.clock++
	si := int(uint64(l)&t.mask) * t.ways
	set := t.entries[si : si+t.ways]
	for i := range set {
		if set[i].valid && set[i].tag == l {
			set[i].lru = t.clock
			return true, 0, false
		}
	}
	for i := range set {
		if !set[i].valid {
			set[i] = tagEntry{tag: l, valid: true, lru: t.clock}
			return false, 0, false
		}
	}
	vi := 0
	for i := range set {
		if set[i].lru < set[vi].lru {
			vi = i
		}
	}
	old := set[vi].tag
	set[vi] = tagEntry{tag: l, valid: true, lru: t.clock}
	return false, old, true
}
