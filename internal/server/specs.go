package server

import "sync"

// specDigests maps a {"generate":…} spec to the content digest of the
// circuit it generates (which GenerateFT names after the spec), so a warm
// estimate can probe the result memo without synthesizing, lowering and
// hashing the benchmark again. Generators are deterministic, and a spec is
// recorded only after it resolved and estimated under this server's caps,
// so a recorded spec always denotes the same circuit. The table is bounded
// at the result memo's capacity and evicts the oldest recorded spec first.
// Safe for concurrent use.
type specDigests struct {
	mu    sync.Mutex
	items map[string]string
	ring  []string // recorded specs in insertion order, oldest at next
	next  int
}

func newSpecDigests(capacity int) *specDigests {
	return &specDigests{
		items: make(map[string]string, capacity),
		ring:  make([]string, 0, capacity),
	}
}

// get reports spec's recorded digest.
func (t *specDigests) get(spec string) (string, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	d, ok := t.items[spec]
	return d, ok
}

// put records spec, evicting the oldest spec once the table is full. A spec
// already present keeps its place.
func (t *specDigests) put(spec, digest string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.items[spec]; ok {
		return
	}
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, spec)
	} else {
		delete(t.items, t.ring[t.next])
		t.ring[t.next] = spec
		t.next = (t.next + 1) % len(t.ring)
	}
	t.items[spec] = digest
}

// size reports how many specs are recorded.
func (t *specDigests) size() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.items)
}
