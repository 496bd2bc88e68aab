package hpcm

import (
	"bytes"
	"errors"
	"sync/atomic"
	"testing"

	"autoresched/internal/mpi"
	"autoresched/internal/vclock"
)

// patterned returns n bytes of a repeating non-zero pattern, so a chunk
// landing at the wrong offset shows.
func patterned(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i%251)
	}
	return b
}

// chunkFeed serves chunks one receive at a time and counts what was taken.
type chunkFeed struct {
	chunks [][]byte
	taken  int
}

func (f *chunkFeed) recv() ([]byte, error) {
	if f.taken == len(f.chunks) {
		return nil, errors.New("stream exhausted")
	}
	f.taken++
	return f.chunks[f.taken-1], nil
}

// split cuts blob into the chunks the sender streams: data[off:end] of the
// one blob, the last chunk short, one empty chunk for a zero-size blob.
func split(blob []byte, chunk int) [][]byte {
	var out [][]byte
	for off := 0; ; off += chunk {
		end := min(off+chunk, len(blob))
		out = append(out, blob[off:end])
		if end == len(blob) {
			return out
		}
	}
}

func TestAssembleLazyInPlace(t *testing.T) {
	for _, tc := range []struct {
		name        string
		size, chunk int
	}{
		{"multiple of the chunk", 16, 4},
		{"short last chunk", 10, 4},
		{"below one chunk", 3, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := patterned(tc.size, 1)
			feed := &chunkFeed{chunks: split(src, tc.chunk)}
			got, err := assembleLazy(int64(tc.size), feed.recv)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, src) {
				t.Fatalf("assembled %v, want %v", got, src)
			}
			if &got[0] != &src[0] {
				t.Fatal("contiguous chunks were copied instead of reassembled on the sender's array")
			}
			if feed.taken != len(feed.chunks) {
				t.Fatalf("consumed %d of %d chunks", feed.taken, len(feed.chunks))
			}
		})
	}
}

func TestAssembleLazyZeroSize(t *testing.T) {
	feed := &chunkFeed{chunks: [][]byte{{}, []byte("next blob")}}
	got, err := assembleLazy(0, feed.recv)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("zero-size blob assembled to %d bytes", len(got))
	}
	if feed.taken != 1 {
		t.Fatalf("zero-size blob consumed %d chunks, want its one empty chunk", feed.taken)
	}
}

// TestAssembleLazyNonContiguousCopiesPrivately feeds chunks that do not
// continue one another's backing array, from a sender slice with spare
// capacity behind it: the assembly must move into a buffer of its own and
// leave every byte it received — spare capacity included — untouched.
func TestAssembleLazyNonContiguousCopiesPrivately(t *testing.T) {
	for _, tc := range []struct {
		name   string
		chunks func(sender, other []byte) [][]byte
		want   func(sender, other []byte) []byte
	}{
		{
			"foreign second chunk",
			func(s, o []byte) [][]byte { return [][]byte{s[0:4], o[0:4]} },
			func(s, o []byte) []byte { return append(append([]byte(nil), s[0:4]...), o[0:4]...) },
		},
		{
			"reordered chunks",
			func(s, _ []byte) [][]byte { return [][]byte{s[4:8], s[0:4]} },
			func(s, _ []byte) []byte { return append(append([]byte(nil), s[4:8]...), s[0:4]...) },
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			backing := patterned(16, 7)
			sender := backing[:8] // 8 spare bytes of capacity behind it
			other := patterned(4, 100)
			before := append([]byte(nil), backing...)
			otherBefore := append([]byte(nil), other...)
			want := tc.want(sender, other)

			got, err := assembleLazy(8, (&chunkFeed{chunks: tc.chunks(sender, other)}).recv)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("assembled %v, want %v", got, want)
			}
			if &got[0] == &backing[0] || &got[0] == &backing[4] {
				t.Fatal("non-contiguous blob still aliases the sender's array")
			}
			if !bytes.Equal(backing, before) || !bytes.Equal(other, otherBefore) {
				t.Fatal("assembly wrote into memory it received")
			}
		})
	}
}

func TestAssembleLazyRejectsOverrun(t *testing.T) {
	feed := &chunkFeed{chunks: [][]byte{patterned(6, 1)}}
	if _, err := assembleLazy(4, feed.recv); err == nil {
		t.Fatal("a chunk past the blob's size was accepted")
	}
}

// TestRestoreLazyInventoryOrder restores two blobs from one stream: each is
// installed as soon as its last chunk arrives, before the next blob's first
// chunk is read, and each keeps its own bytes.
func TestRestoreLazyInventoryOrder(t *testing.T) {
	small, big := patterned(5, 1), patterned(11, 50)
	hdr := header{LazyNames: []string{"small", "big"}, LazySizes: []int64{5, 11}}
	saved := newSavedState()
	feed := &chunkFeed{chunks: append(split(small, 4), split(big, 4)...)}
	firstOfBig := len(split(small, 4))
	recv := func() ([]byte, error) {
		if feed.taken == firstOfBig {
			saved.mu.Lock()
			ready := saved.ready["small"] && !saved.ready["big"]
			saved.mu.Unlock()
			if !ready {
				return nil, errors.New("big's first chunk read before small was installed")
			}
		}
		return feed.recv()
	}
	if err := restoreLazy(hdr, saved, recv); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string][]byte{"small": small, "big": big} {
		got, err := saved.awaitLazy(name)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) || &got[0] != &want[0] {
			t.Fatalf("%s: restored %v, want %v in place", name, got, want)
		}
	}
	if feed.taken != len(feed.chunks) {
		t.Fatalf("consumed %d of %d chunks", feed.taken, len(feed.chunks))
	}
}

// lazySendCounter counts the transfers from one host to another while
// armed: between PhaseResume and PhaseRestore that is the lazy stream alone
// (the restore handshake travels the other way).
type lazySendCounter struct {
	from, to string
	armed    atomic.Bool
	sends    atomic.Int64
}

func (c *lazySendCounter) Send(from, to string, _ int64) error {
	if c.armed.Load() && from == c.from && to == c.to {
		c.sends.Add(1)
	}
	return nil
}

// TestMigrationRestoresLazyStateInPlace migrates a process once and checks
// that the resumed incarnation's lazy []byte is the source's own backing
// array, streamed as exactly ⌈size/ChunkBytes⌉ raw chunks.
func TestMigrationRestoresLazyStateInPlace(t *testing.T) {
	const chunk = 64 << 10
	const size = 5*chunk + 123
	ctr := &lazySendCounter{from: "a", to: "b"}
	u := mpi.NewUniverse(mpi.Options{Clock: vclock.NewManual(vclock.Epoch), Transport: ctr})
	mw, err := New(Options{
		Universe:   u,
		ChunkBytes: chunk,
		Observer: func(ev MigrationEvent) {
			switch ev.Phase {
			case PhaseResume:
				ctr.armed.Store(true)
			case PhaseRestore:
				ctr.armed.Store(false)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := patterned(size, 3)
	signalled := make(chan struct{})
	var srcFirst, dstFirst *byte
	p, err := mw.Start("app", "a", func(ctx *Context) error {
		var bulk []byte
		if !ctx.Resumed() {
			bulk = append([]byte(nil), want...)
			srcFirst = &bulk[0]
		}
		if err := ctx.RegisterLazy("bulk", &bulk); err != nil {
			return err
		}
		if !ctx.Resumed() {
			<-signalled
			if err := ctx.PollPoint("go"); err != nil {
				return err
			}
			return errors.New("expected migration at the first poll point")
		}
		if err := ctx.Await("bulk"); err != nil {
			return err
		}
		if !bytes.Equal(bulk, want) {
			return errors.New("lazy state corrupted in transit")
		}
		dstFirst = &bulk[0]
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Signal(Command{DestHost: "b"})
	close(signalled)
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	if p.Migrations() != 1 {
		t.Fatalf("migrations = %d", p.Migrations())
	}
	if dstFirst != srcFirst {
		t.Fatal("resumed incarnation's lazy state was copied, not restored on the source's array")
	}
	if got, want := ctr.sends.Load(), int64((size+chunk-1)/chunk); got != want {
		t.Fatalf("lazy stream took %d sends, want %d", got, want)
	}
}
