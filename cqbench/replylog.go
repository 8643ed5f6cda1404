package main

import (
	"encoding/binary"
	"fmt"
	"os"
	"sync"
	"syscall"
	"time"
)

// replyLog records the exchanges of an untraced run outside the Go heap,
// in anonymous memory mappings. peak_heap_mb samples the live Go heap
// while the run is measured. A log kept on the heap would grow with every
// reply, so the figure would track how many replies the server had sent
// by then, not how much memory it holds. The log keeps one fixed-size
// entry per exchange and each reply body; bodies of registered queries,
// which repeat, are kept once per distinct content.
type replyLog struct {
	origin  time.Time
	mu      sync.Mutex
	entries arena // entrySize bytes per exchange
	bodies  arena
	seen    map[uint64]bodyRef // repeating bodies, by hash
	errs    int                // transport errors printed so far
}

type bodyRef struct{ chunk, off, n uint32 }

// An entry is: stream (1 byte), flags (1), status (2), seq (4), start
// and end in nanoseconds since origin (8 each), body hash (8) and the
// body's chunk, offset and length (4 each), padded to 48 bytes.
const (
	entrySize         = 48
	flagMeasured      = 1
	flagTransportErr  = 2
	entryChunkSize    = entrySize << 20
	bodyChunkSize     = 64 << 20
	transportErrShown = 3
)

func newReplyLog() *replyLog {
	return &replyLog{origin: time.Now(), seen: map[uint64]bodyRef{}}
}

// add records one exchange of the job at position seq of stream s.
func (l *replyLog) add(s, seq int, r record, measured bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	ref, ok := l.seen[r.hash]
	if !ok && len(r.body) > 0 {
		c, off, b := l.bodies.alloc(len(r.body), bodyChunkSize)
		copy(b, r.body)
		ref = bodyRef{uint32(c), uint32(off), uint32(len(r.body))}
		if r.j.q != nil && r.j.q.name != "" {
			l.seen[r.hash] = ref
		}
	}
	var flags byte
	if measured {
		flags |= flagMeasured
	}
	if r.verdict != nil {
		flags |= flagTransportErr
		if l.errs++; l.errs <= transportErrShown {
			fmt.Fprintln(os.Stderr, "cqbench:", r.verdict)
		}
	}
	_, _, e := l.entries.alloc(entrySize, entryChunkSize)
	e[0], e[1] = byte(s), flags
	le := binary.LittleEndian
	le.PutUint16(e[2:], uint16(r.status))
	le.PutUint32(e[4:], uint32(seq))
	le.PutUint64(e[8:], uint64(r.start.Sub(l.origin)))
	le.PutUint64(e[16:], uint64(r.end.Sub(l.origin)))
	le.PutUint64(e[24:], r.hash)
	le.PutUint32(e[32:], ref.chunk)
	le.PutUint32(e[36:], ref.off)
	le.PutUint32(e[40:], ref.n)
}

// records decodes the log in the order the exchanges were added. jobs[s]
// holds the jobs of stream s by position. Record bodies point into the
// log's mappings and stay valid until free.
func (l *replyLog) records(jobs [][]*job) []record {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []record
	le := binary.LittleEndian
	l.entries.each(entrySize, func(e []byte) {
		r := record{
			j:        jobs[e[0]][le.Uint32(e[4:])],
			status:   int32(le.Uint16(e[2:])),
			start:    l.origin.Add(time.Duration(le.Uint64(e[8:]))),
			end:      l.origin.Add(time.Duration(le.Uint64(e[16:]))),
			hash:     le.Uint64(e[24:]),
			measured: e[1]&flagMeasured != 0,
		}
		if e[1]&flagTransportErr != 0 {
			r.verdict = failed("transport error")
		}
		if n := le.Uint32(e[40:]); n > 0 {
			c, off := le.Uint32(e[32:]), le.Uint32(e[36:])
			r.body = l.bodies.chunks[c][off : off+n : off+n]
		}
		out = append(out, r)
	})
	return out
}

func (l *replyLog) free() {
	l.entries.free()
	l.bodies.free()
}

// arena hands out byte slices from anonymous memory mappings, which the
// Go garbage collector neither scans nor counts in its heap.
type arena struct {
	chunks [][]byte
	used   int // bytes handed out from the last chunk
}

// alloc returns n bytes and where they are: a new chunk of chunkSize
// bytes (or n, if larger) is mapped when the last one is full.
func (a *arena) alloc(n, chunkSize int) (chunk, off int, b []byte) {
	if len(a.chunks) == 0 || a.used+n > len(a.chunks[len(a.chunks)-1]) {
		m, err := syscall.Mmap(-1, 0, max(n, chunkSize), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
		if err != nil {
			panic(fmt.Sprintf("cqbench: mapping %d bytes for the reply log: %v", max(n, chunkSize), err))
		}
		a.chunks, a.used = append(a.chunks, m), 0
	}
	chunk, off = len(a.chunks)-1, a.used
	a.used += n
	return chunk, off, a.chunks[chunk][off:a.used:a.used]
}

// each calls fn on every size-byte slice handed out, in order; every
// allocation must have been size bytes, with chunks a multiple of it.
func (a *arena) each(size int, fn func([]byte)) {
	for c, m := range a.chunks {
		n := len(m)
		if c == len(a.chunks)-1 {
			n = a.used
		}
		for off := 0; off+size <= n; off += size {
			fn(m[off : off+size])
		}
	}
}

func (a *arena) free() {
	for _, m := range a.chunks {
		_ = syscall.Munmap(m)
	}
	a.chunks, a.used = nil, 0
}
