package core

import (
	"sync"
	"sync/atomic"

	"dapper/internal/llbc"
)

// partnerMemoEntries bounds the shared partner-group memo: 65,536
// entries of 512 B member arrays (32 MiB) plus their 40 B keys, held
// once in the map and once in the eviction ring (~6 MiB). That is every
// group of both tables of the baseline's four 2M-row ranks, so one
// reset window at the paper's horizon fits without eviction.
const partnerMemoEntries = 1 << 16

// groupMemoTables bounds the shared group memo's key pairs: 16 tables
// of groupMemoSlots 8 B slots (64 KiB each, 1 MiB in all). The
// baseline's four ranks fill four tables a reset window, so two
// windows' worth, as concurrent pool workers may straddle a rekey, fit
// without eviction.
const groupMemoTables = 16

// groupMemoSlots is the slot count of one group table, indexed by a
// multiplicative hash of the rank row index: the row's low bits are its
// row within a bank, so indexing by them would collide the rows a
// bank-interleaved stream touches together.
const (
	groupMemoSlots = 1 << groupMemoBits
	groupMemoBits  = 13
)

// fifoMemo is a map bounded at limit entries that evicts the oldest. A
// memo keyed by cipher keys wants exactly that: a rekey retires a whole
// key set at once, and its entries are the oldest. Values are written
// once and never changed, so a caller may use the one it got after the
// lock is released.
type fifoMemo[K comparable, V any] struct {
	limit   int
	mu      sync.Mutex
	entries map[K]V
	ring    []K // insertion order; ring[next] is the oldest once full
	next    int
}

// load returns the value stored under k, if any.
func (m *fifoMemo[K, V]) load(k K) (V, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	v, ok := m.entries[k]
	return v, ok
}

// store stores v under k unless a concurrent caller got there first,
// and returns the value now stored.
func (m *fifoMemo[K, V]) store(k K, v V) V {
	m.mu.Lock()
	defer m.mu.Unlock()
	if q, ok := m.entries[k]; ok {
		return q
	}
	if m.entries == nil {
		m.entries = make(map[K]V)
	}
	if len(m.ring) < m.limit {
		m.ring = append(m.ring, k)
	} else {
		delete(m.entries, m.ring[m.next])
		m.ring[m.next] = k
		m.next = (m.next + 1) % m.limit
	}
	m.entries[k] = v
	return v
}

// partnerGroups holds, for each of a group's 256 members under one
// cipher, the member's group under the other cipher. uint16 covers the
// 65,536 groups per rank ValidateH admits.
type partnerGroups [groupSize]uint16

// partnerKey names a memo entry by the mapping, not by its owner: two
// ciphers of equal width and keys are the same bijection, whichever
// tracker holds them.
type partnerKey struct {
	from, to [llbc.Rounds]uint32
	bits     uint32
	g        uint32
}

// partnerMemo maps (from keys, to keys, width, group) to the group's
// partnerGroups.
type partnerMemo = fifoMemo[partnerKey, *partnerGroups]

// partners is the process-wide memo every DapperH reads. It is shared
// rather than owned because its content is a pure function of the key:
// every DAPPER-H built from the same seed, geometry and channel uses the
// same keys in the same epoch (lockstep followers, the points of a sweep,
// concurrent pool workers), and no caller can tell another's use from
// its own except by speed. It allocates only to fill an entry, so a run
// that never mitigates allocates nothing.
var partners = partnerMemo{limit: partnerMemoEntries}

// partnersOf returns, for each member i of group g under cipher from,
// the member's group under cipher to: to.Encrypt(from.Decrypt(g<<8|i))
// >> 8. It computes a missing entry outside the lock; a concurrent miss
// on the same key computes the same array.
func partnersOf(m *partnerMemo, from, to *llbc.Cipher, g uint64) *partnerGroups {
	k := partnerKey{from: from.Keys(), to: to.Keys(), bits: uint32(from.Bits()), g: uint32(g)}
	if p, ok := m.load(k); ok {
		return p
	}
	p := new(partnerGroups)
	base := g << groupShift
	for i := range p {
		p[i] = uint16(to.Encrypt(from.Decrypt(base+uint64(i))) >> groupShift)
	}
	return m.store(k, p)
}

// groupKey names a group table by its two ciphers' keys and width.
type groupKey struct {
	keys1, keys2 [llbc.Rounds]uint32
	bits         uint32
}

// groupTable is a direct-mapped cache from a rank row index to its
// (table-1, table-2) group pair under one cipher pair. Each slot packs
// valid (bit 63) | row index (bits 32-55) | g1 (bits 16-31) | g2 (bits
// 0-15); ValidateH keeps a rank within 2^24 rows and 2^16 groups. A
// slot is one atomic word and names its own row, so trackers on any
// goroutine may read and overwrite each other's slots: a read either
// matches the row and returns the pure-function value, or misses.
type groupTable [groupMemoSlots]atomic.Uint64

const groupSlotValid = 1 << 31 // the valid bit, in a slot shifted right by 32

// groupMemo maps (keys1, keys2, width) to the cipher pair's groupTable.
type groupMemo = fifoMemo[groupKey, *groupTable]

// groupTables is the process-wide group memo. It is shared for the same
// reason as partners: every DAPPER-H with the same seed, channel, rank
// and epoch hashes the same rows to the same groups, so in a sweep the
// lockstep followers find every row the lead or another follower has
// just hashed. A tracker looks its tables up when it is built and at
// each rekey, never per ACT; a table evicted while a tracker holds it
// stays valid for that tracker.
var groupTables = groupMemo{limit: groupMemoTables}

// groupTableOf returns the table shared by every cipher pair with c1's
// and c2's keys and width.
func groupTableOf(m *groupMemo, c1, c2 *llbc.Cipher) *groupTable {
	k := groupKey{keys1: c1.Keys(), keys2: c2.Keys(), bits: uint32(c1.Bits())}
	if t, ok := m.load(k); ok {
		return t
	}
	return m.store(k, new(groupTable))
}

// groupSlot returns idx's slot in a group table.
func groupSlot(idx uint64) uint64 { return idx * 0x9E3779B97F4A7C15 >> (64 - groupMemoBits) }

// groups returns row idx's groups c1.Encrypt(idx) >> 8 and
// c2.Encrypt(idx) >> 8, where c1 and c2 hold the keys t was made for.
// A miss computes both and overwrites the slot.
func (t *groupTable) groups(c1, c2 *llbc.Cipher, idx uint64) (g1, g2 uint64) {
	s := &t[groupSlot(idx)]
	if v := s.Load(); v>>32 == groupSlotValid|idx {
		return v >> 16 & 0xFFFF, v & 0xFFFF
	}
	g1, g2 = c1.Encrypt(idx)>>groupShift, c2.Encrypt(idx)>>groupShift
	s.Store((groupSlotValid|idx)<<32 | g1<<16 | g2)
	return g1, g2
}
