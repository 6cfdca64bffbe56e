package core

import (
	"sync"

	"dapper/internal/llbc"
)

// partnerMemoEntries bounds the shared partner-group memo: 65,536
// entries of 512 B member arrays (32 MiB) plus their 40 B keys, held
// once in the map and once in the eviction ring (~6 MiB). That is every
// group of both tables of the baseline's four 2M-row ranks, so one
// reset window at the paper's horizon fits without eviction.
const partnerMemoEntries = 1 << 16

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
// partnerGroups. Entries are written once and never changed, so a
// caller may read the array it got after the lock is released. Holding
// limit entries, it evicts the oldest: a rekey retires a whole key set
// at once, and those entries are the oldest.
type partnerMemo struct {
	limit   int
	mu      sync.Mutex
	entries map[partnerKey]*partnerGroups
	ring    []partnerKey // insertion order; ring[next] is the oldest once full
	next    int
}

// partners is the process-wide memo every DapperH reads. It is shared
// rather than owned because its content is a pure function of the key:
// every DAPPER-H built from the same seed, geometry and channel uses the
// same keys in the same epoch (lockstep followers, the points of a sweep,
// concurrent pool workers), and no caller can tell another's use from
// its own except by speed. It allocates only to fill an entry, so a run
// that never mitigates allocates nothing.
var partners = partnerMemo{limit: partnerMemoEntries}

// get returns, for each member i of group g under cipher from, the
// member's group under cipher to: to.Encrypt(from.Decrypt(g<<8|i)) >> 8.
// It computes a missing entry outside the lock; a concurrent miss on
// the same key computes the same array.
func (m *partnerMemo) get(from, to *llbc.Cipher, g uint64) *partnerGroups {
	k := partnerKey{from: from.Keys(), to: to.Keys(), bits: uint32(from.Bits()), g: uint32(g)}
	m.mu.Lock()
	p := m.entries[k]
	m.mu.Unlock()
	if p != nil {
		return p
	}
	p = new(partnerGroups)
	base := g << groupShift
	for i := range p {
		p[i] = uint16(to.Encrypt(from.Decrypt(base+uint64(i))) >> groupShift)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if q := m.entries[k]; q != nil {
		return q
	}
	if m.entries == nil {
		m.entries = make(map[partnerKey]*partnerGroups)
	}
	if len(m.ring) < m.limit {
		m.ring = append(m.ring, k)
	} else {
		delete(m.entries, m.ring[m.next])
		m.ring[m.next] = k
		m.next = (m.next + 1) % m.limit
	}
	m.entries[k] = p
	return p
}
