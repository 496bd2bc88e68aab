package hpcm

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sync"

	"autoresched/internal/livemig"
)

// registry is the memory-state table HPCM's precompiler would have
// generated: named variables, eager or lazy, with their serialised forms for
// collection and restoration.
type registry struct {
	mu      sync.Mutex
	cond    *sync.Cond
	entries map[string]*entry
	// saved holds incoming state on a resumed incarnation: eager data is
	// present at creation, lazy data arrives from the background stream.
	saved *savedState
}

type entry struct {
	name     string
	ptr      any
	lazy     bool
	restored bool
}

// savedState is the transferable memory image.
type savedState struct {
	mu    sync.Mutex
	cond  *sync.Cond
	eager map[string][]byte
	lazy  map[string][]byte // complete lazy blobs (assembled from chunks)
	ready map[string]bool   // lazy name fully received
	err   error             // the inbound stream died; missing blobs never arrive
	dead  chan struct{}     // closed when err is set
}

func newSavedState() *savedState {
	s := &savedState{
		eager: make(map[string][]byte),
		lazy:  make(map[string][]byte),
		ready: make(map[string]bool),
		dead:  make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// completeLazy installs a fully received lazy blob.
func (s *savedState) completeLazy(name string, data []byte) {
	s.mu.Lock()
	s.lazy[name] = data
	s.ready[name] = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// fail marks the inbound state stream dead: blobs not yet complete will
// never arrive, awaiters unblock with err, and dead closes.
func (s *savedState) fail(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
		close(s.dead)
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// awaitLazy blocks until the named lazy blob has fully arrived, or the
// stream fails.
func (s *savedState) awaitLazy(name string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for !s.ready[name] && s.err == nil {
		s.cond.Wait()
	}
	if s.ready[name] {
		return s.lazy[name], nil
	}
	return nil, s.err
}

func newRegistry(saved *savedState) *registry {
	r := &registry{entries: make(map[string]*entry), saved: saved}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// register adds (or re-binds, on resume) a state variable. On a resumed
// incarnation, eager state restores immediately; lazy state restores when
// awaited (or when the stream completes first).
func (r *registry) register(name string, ptr any, lazy bool) error {
	if ptr == nil {
		return fmt.Errorf("hpcm: register %q with nil pointer", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, exists := r.entries[name]; exists {
		return fmt.Errorf("hpcm: state %q already registered", name)
	}
	e := &entry{name: name, ptr: ptr, lazy: lazy}
	r.entries[name] = e
	if r.saved == nil {
		return nil
	}
	if !lazy {
		data, ok := r.saved.eager[name]
		if !ok {
			return fmt.Errorf("hpcm: resumed without saved state for %q", name)
		}
		if err := decodeState(data, ptr); err != nil {
			return fmt.Errorf("hpcm: restore %q: %w", name, err)
		}
		e.restored = true
	}
	return nil
}

// await blocks until the named lazy entry is restored into its pointer.
func (r *registry) await(name string) error {
	r.mu.Lock()
	e, ok := r.entries[name]
	if !ok {
		r.mu.Unlock()
		return fmt.Errorf("hpcm: await of unregistered state %q", name)
	}
	if e.restored || r.saved == nil {
		// Fresh incarnation or already restored: nothing to wait for.
		if r.saved == nil {
			e.restored = true
		}
		r.mu.Unlock()
		return nil
	}
	saved := r.saved
	r.mu.Unlock()

	data, err := saved.awaitLazy(name)
	if err != nil {
		return fmt.Errorf("hpcm: await %q: %w", name, err)
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	if e.restored {
		return nil
	}
	if err := decodeState(data, e.ptr); err != nil {
		return fmt.Errorf("hpcm: restore %q: %w", name, err)
	}
	e.restored = true
	return nil
}

// collect serialises the current memory state for transfer: the eager
// image and the lazy blobs. skip names one entry to leave out — the live
// path ships its paged region page-by-page and must not duplicate it in
// the freeze payload; classic migration passes "".
func (r *registry) collect(skip string) (eager map[string][]byte, lazy map[string][]byte, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	eager = make(map[string][]byte)
	lazy = make(map[string][]byte)
	for name, e := range r.entries {
		if skip != "" && name == skip {
			continue
		}
		data, err := encodeState(e.ptr)
		if err != nil {
			return nil, nil, fmt.Errorf("hpcm: collect %q: %w", name, err)
		}
		if e.lazy {
			lazy[name] = data
		} else {
			eager[name] = data
		}
	}
	return eager, lazy, nil
}

// pagesRegion returns the process's paged region if exactly one is
// registered. Live precopy only engages for that shape; zero or several
// paged regions migrate classically.
func (r *registry) pagesRegion() (string, *livemig.Pages) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var (
		name  string
		pages *livemig.Pages
		count int
	)
	for n, e := range r.entries {
		if pg, ok := e.ptr.(*livemig.Pages); ok {
			name, pages = n, pg
			count++
		}
	}
	if count != 1 {
		return "", nil
	}
	return name, pages
}

// encodeState serialises one registered variable. Raw byte regions move
// without re-encoding — the source is paused at its poll-point and never
// touches the state again, so sharing the backing array is safe and keeps
// collection of large memory images cheap (HPCM's data collection likewise
// ships raw memory blocks).
func encodeState(ptr any) ([]byte, error) {
	if bp, ok := ptr.(*[]byte); ok {
		return *bp, nil
	}
	// A paged region serialises as its flat image, so checkpoints, classic
	// migration and precopy fallback all work on Pages unchanged.
	if pg, ok := ptr.(*livemig.Pages); ok {
		return pg.Bytes(), nil
	}
	return gobEncode(ptr)
}

// decodeState mirrors encodeState on restoration.
func decodeState(data []byte, ptr any) error {
	if bp, ok := ptr.(*[]byte); ok {
		*bp = data
		return nil
	}
	if pg, ok := ptr.(*livemig.Pages); ok {
		return pg.Load(data)
	}
	return gobDecode(data, ptr)
}

func gobEncode(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func gobDecode(data []byte, ptr any) error {
	return gob.NewDecoder(bytes.NewReader(data)).Decode(ptr)
}
