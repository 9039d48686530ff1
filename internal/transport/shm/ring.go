// Ring file layout and the single-producer/single-consumer byte ring
// mapped over it.
//
// One file carries one direction of one peer pair: frames from src to
// dst.  The layout is a 128-byte header followed by a circular data area:
//
//	offset  size  field
//	     0     8  magic "XDAQSHM1"
//	     8     4  version (1)
//	    12     4  capacity: data area bytes
//	    16     4  src node id
//	    20     4  dst node id
//	    24     4  ready flag (atomic; 1 once the creator finished the header)
//	    32     8  head: consumer cursor (atomic, free-running byte count)
//	    64     8  tail: producer cursor (atomic, free-running byte count)
//	   128     -  data[capacity]
//
// head and tail sit on separate cache lines so the producer and consumer
// never false-share.  Both count bytes consumed/produced since creation
// and never wrap; the ring offset is cursor mod capacity and occupancy is
// tail-head.  A record is a 4-byte little-endian record word (the same
// 24-bit-size encoding as the TCP framing, i2o.PackRecordWord) followed
// by the encoded frame, which is always a multiple of 4 bytes.  When a
// record would not fit contiguously before the end of the data area the
// producer writes the wrap marker 0xFFFFFFFF (an impossible record word:
// frames are capped at i2o.MaxWireSize) and continues at offset 0.
//
// Either endpoint may create the file: creation races through
// O_CREATE|O_EXCL, the loser opens the existing file and spins on the
// ready flag.  Memory ordering leans on Go's atomic semantics applied to
// the mapped words: the producer publishes payload bytes with a
// store-release of tail, the consumer acquires them with a load-acquire
// of tail, and symmetrically for head when returning space.
package shm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"xdaq/internal/i2o"
)

const (
	ringMagic   = "XDAQSHM1"
	ringVersion = 1

	headerSize  = 128
	offMagic    = 0
	offVersion  = 8
	offCapacity = 12
	offSrc      = 16
	offDst      = 20
	offReady    = 24
	offHead     = 32
	offTail     = 64

	// wrapMarker pads the tail of the data area when a record will not
	// fit contiguously.  It can never be a real record word: the size
	// field would read 0xFFFFFF, far above i2o.MaxWireSize.
	wrapMarker = ^uint32(0)

	// openWait bounds the spin for a concurrently-created ring's header
	// to become ready.
	openWait = 5 * time.Second
)

// errRingClosed reports a push against an unmapped ring (transport
// stopping); the transport maps it to ErrClosed.
var errRingClosed = fmt.Errorf("shm: ring closed")

// errCorruptRing reports inbound cursors or a record word that no honest
// producer writes; the consumer stops draining that ring.
var errCorruptRing = errors.New("shm: corrupt ring")

// ring is one mapped direction.  The producer side serializes in-process
// writers with wmu; the consumer side is owned by the transport's single
// poll loop.
type ring struct {
	path    string
	created bool

	mem  []byte
	data []byte
	cap  uint64

	head  *uint64
	tail  *uint64
	ready *uint32

	wmu sync.Mutex

	corrupt bool // consumer-owned: set once next finds a malformed record
}

func word32(mem []byte, off int) *uint32 { return (*uint32)(unsafe.Pointer(&mem[off])) }
func word64(mem []byte, off int) *uint64 { return (*uint64)(unsafe.Pointer(&mem[off])) }

// ringPath names the file for the src→dst direction inside dir.
func ringPath(dir string, src, dst i2o.NodeID) string {
	return fmt.Sprintf("%s/ring-%d-to-%d.shm", dir, src, dst)
}

// openRing creates or attaches the src→dst ring file in dir.  capacity is
// the data-area size in bytes and must match between the two endpoints
// (both derive it from their transport config; a mismatch is an error).
func openRing(dir string, src, dst i2o.NodeID, capacity int) (*ring, error) {
	if capacity < 4*1024 || capacity%8 != 0 {
		return nil, fmt.Errorf("shm: ring capacity %d: want a multiple of 8 ≥ 4096", capacity)
	}
	path := ringPath(dir, src, dst)
	total := headerSize + capacity

	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	created := err == nil
	if !created {
		if !os.IsExist(err) {
			return nil, fmt.Errorf("shm: create %s: %w", path, err)
		}
		if f, err = os.OpenFile(path, os.O_RDWR, 0o644); err != nil {
			return nil, fmt.Errorf("shm: open %s: %w", path, err)
		}
	}
	defer f.Close()

	if created {
		if err := f.Truncate(int64(total)); err != nil {
			os.Remove(path)
			return nil, fmt.Errorf("shm: size %s: %w", path, err)
		}
	} else if err := waitSize(f, int64(total)); err != nil {
		return nil, err
	}

	mem, err := syscall.Mmap(int(f.Fd()), 0, total, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("shm: mmap %s: %w", path, err)
	}
	r := &ring{
		path:    path,
		created: created,
		mem:     mem,
		data:    mem[headerSize:],
		cap:     uint64(capacity),
		head:    word64(mem, offHead),
		tail:    word64(mem, offTail),
		ready:   word32(mem, offReady),
	}
	if created {
		copy(mem[offMagic:], ringMagic)
		binary.LittleEndian.PutUint32(mem[offVersion:], ringVersion)
		binary.LittleEndian.PutUint32(mem[offCapacity:], uint32(capacity))
		binary.LittleEndian.PutUint32(mem[offSrc:], uint32(src))
		binary.LittleEndian.PutUint32(mem[offDst:], uint32(dst))
		atomic.StoreUint32(r.ready, 1) // release: header visible before ready
		return r, nil
	}
	if err := r.attach(src, dst, capacity); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// waitSize polls until the creator's Truncate lands (the open/truncate
// pair is not atomic for the losing side of the creation race).
func waitSize(f *os.File, want int64) error {
	deadline := time.Now().Add(openWait)
	for {
		st, err := f.Stat()
		if err != nil {
			return fmt.Errorf("shm: stat %s: %w", f.Name(), err)
		}
		if st.Size() >= want {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("shm: %s: ring not sized by creator (have %d, want %d)", f.Name(), st.Size(), want)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// attach validates an existing ring's header, waiting for the creator to
// publish it.
func (r *ring) attach(src, dst i2o.NodeID, capacity int) error {
	deadline := time.Now().Add(openWait)
	for atomic.LoadUint32(r.ready) == 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("shm: %s: ring never became ready", r.path)
		}
		time.Sleep(200 * time.Microsecond)
	}
	if string(r.mem[offMagic:offMagic+8]) != ringMagic {
		return fmt.Errorf("shm: %s: bad magic", r.path)
	}
	if v := binary.LittleEndian.Uint32(r.mem[offVersion:]); v != ringVersion {
		return fmt.Errorf("shm: %s: layout version %d (want %d)", r.path, v, ringVersion)
	}
	if c := binary.LittleEndian.Uint32(r.mem[offCapacity:]); int(c) != capacity {
		return fmt.Errorf("shm: %s: capacity %d does not match configured %d", r.path, c, capacity)
	}
	if s := binary.LittleEndian.Uint32(r.mem[offSrc:]); i2o.NodeID(s) != src {
		return fmt.Errorf("shm: %s: src %d (want %v)", r.path, s, src)
	}
	if d := binary.LittleEndian.Uint32(r.mem[offDst:]); i2o.NodeID(d) != dst {
		return fmt.Errorf("shm: %s: dst %d (want %v)", r.path, d, dst)
	}
	return nil
}

// push encodes m into the ring.  On success the record is published and
// the frame is NOT released — the caller owns the handoff.  ErrRingFull
// (transient) reports insufficient space; the record is untouched.
func (r *ring) push(m *i2o.Message) error {
	size := m.WireSize()
	need := uint64(4 + size)
	if need > r.cap/2 {
		return fmt.Errorf("%w: %d bytes into %d-byte ring", ErrFrameTooLarge, size, r.cap)
	}
	r.wmu.Lock()
	defer r.wmu.Unlock()
	if r.mem == nil {
		return errRingClosed
	}

	head := atomic.LoadUint64(r.head) // acquire: space freed by consumer
	tail := atomic.LoadUint64(r.tail)
	off := tail % r.cap
	free := r.cap - (tail - head)
	if off+need > r.cap {
		// Wrap: a marker pads [off, cap) and the record starts at 0.
		pad := r.cap - off
		if free < pad+need {
			return ErrRingFull
		}
		binary.LittleEndian.PutUint32(r.data[off:], wrapMarker)
		tail += pad
		off = 0
	} else if free < need {
		return ErrRingFull
	}
	if _, err := m.Encode(r.data[off+4 : off+4+uint64(size)]); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(r.data[off:], i2o.PackRecordWord(size, 0))
	atomic.StoreUint64(r.tail, tail+need) // release: publish marker+record
	return nil
}

// next returns the byte range of the next pending record, or a nil frame
// when the ring is empty.  consume() must be called after the bytes have
// been copied out.  The cursors and record words live in memory the peer
// process can write, so each is checked before it is used to slice: a
// malformed ring returns errCorruptRing once and reads as empty from then
// on.
func (r *ring) next() (frame []byte, adv uint64, err error) {
	if r.corrupt {
		return nil, 0, nil
	}
	head := atomic.LoadUint64(r.head)
	for {
		tail := atomic.LoadUint64(r.tail) // acquire: record bytes visible
		if head == tail {
			return nil, 0, nil
		}
		used := tail - head
		off := head % r.cap
		if used > r.cap || off%4 != 0 {
			return r.poison()
		}
		word := binary.LittleEndian.Uint32(r.data[off:])
		if word == wrapMarker {
			skip := r.cap - off
			if skip > used {
				return r.poison()
			}
			head += skip
			atomic.StoreUint64(r.head, head) // release padding back
			continue
		}
		size, _ := i2o.UnpackRecordWord(word)
		adv = uint64(4 + size)
		if size < i2o.StandardHeaderSize || size > i2o.MaxWireSize || off+adv > r.cap || adv > used {
			return r.poison()
		}
		return r.data[off+4 : off+adv], adv, nil
	}
}

// poison marks the ring corrupt.
func (r *ring) poison() ([]byte, uint64, error) {
	r.corrupt = true
	return nil, 0, errCorruptRing
}

// consume returns adv bytes (one record, as reported by next) to the
// producer.
func (r *ring) consume(adv uint64) {
	atomic.StoreUint64(r.head, atomic.LoadUint64(r.head)+adv)
}

// close unmaps the ring and, when this endpoint created the file, unlinks
// it.  A peer still attached keeps its mapping — on POSIX systems an
// unlinked mapped file stays alive until the last munmap.  Taking wmu
// fences out an in-flight producer; the consumer side must already be
// stopped (the transport joins its poller before closing rings).
func (r *ring) close() {
	r.wmu.Lock()
	defer r.wmu.Unlock()
	if r.mem != nil {
		syscall.Munmap(r.mem)
		r.mem, r.data = nil, nil
		r.head, r.tail, r.ready = nil, nil, nil
	}
	if r.created {
		os.Remove(r.path)
	}
}
