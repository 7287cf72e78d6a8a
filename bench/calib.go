package main

import (
	"crypto/sha256"
	"encoding/binary"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// calibration times a fixed reference computation in blocks between a
// run's set-ups and operations. On a shared host, neighbours' load slows
// everything by a fifth or more for seconds to minutes at a time, so the
// medians of runs of the same code drift apart by more than any bound a
// regression gate can use. Each set-up and operation is divided by the
// reference's time in the blocks just before and just after it, which
// cancels that drift, while a change to the library's own cost moves the
// ratio one for one.
//
// Each block first collects garbage. The workloads' heaps are otherwise
// often mid-collection between operations, and collector work the
// reference shared its CPU with would tie its time to the library's
// allocation.
type calibration struct {
	ref    *reference
	ms     []float64 // every reference time
	blocks []refBlock
}

// refBlock is one block: when its reference runs started and ended, and
// their median time in milliseconds.
type refBlock struct {
	start, end time.Time
	ms         float64
}

const (
	// refRuns is how many times one block runs the reference; odd, so the
	// median is one of them.
	refRuns = 15
	// refEvery is how much time passes between blocks.
	refEvery = 3 * time.Second
	// refMachineMs is the reference's median time on the machine the
	// benchmark was defined on (2 vCPU Xeon at 2.7 GHz, go1.24.0). Set-up
	// times are scaled by it over the reference's time around them:
	// seconds as that machine takes them on a quiet host.
	refMachineMs = 16.0
)

func newCalibration() *calibration {
	// Room for every block a run times, so a block never allocates.
	return &calibration{
		ref:    newReference(),
		ms:     make([]float64, 0, 64*refRuns),
		blocks: make([]refBlock, 0, 64),
	}
}

// block collects garbage and, unless c is nil (the traced run), times one
// block of the reference. It returns how long it took.
func (c *calibration) block() time.Duration {
	start := time.Now()
	runtime.GC()
	if c == nil {
		return time.Since(start)
	}
	b := refBlock{start: time.Now()}
	var ms [refRuns]float64
	for i := range ms {
		ms[i] = c.ref.run()
	}
	b.end = time.Now()
	c.ms = append(c.ms, ms[:]...)
	slices.Sort(ms[:])
	b.ms = ms[refRuns/2]
	c.blocks = append(c.blocks, b)
	return b.end.Sub(start)
}

// due reports whether refEvery has passed since the last block.
func (c *calibration) due() bool {
	return c != nil && time.Since(c.blocks[len(c.blocks)-1].end) >= refEvery
}

// around is the reference's time in milliseconds around t: the mean of the
// last block that ended by t.start and the first that began at or after
// t.end, or whichever of them exists.
func (c *calibration) around(t timing) float64 {
	after := sort.Search(len(c.blocks), func(i int) bool { return !c.blocks[i].start.Before(t.end) })
	before := sort.Search(len(c.blocks), func(i int) bool { return c.blocks[i].end.After(t.start) }) - 1
	switch {
	case after == len(c.blocks):
		return c.blocks[before].ms
	case before < 0:
		return c.blocks[after].ms
	}
	return (c.blocks[before].ms + c.blocks[after].ms) / 2
}

// relative returns each timing's milliseconds over the reference's time
// around it.
func (c *calibration) relative(ts []timing) []float64 {
	rel := make([]float64, len(ts))
	for i, t := range ts {
		rel[i] = t.ms / c.around(t)
	}
	return rel
}

// between runs a block every refEvery until stop is closed, each holding
// gate's write lock so that it runs with every client paused between
// cycles. A nil calibration only waits for stop.
func (c *calibration) between(gate *sync.RWMutex, stop <-chan struct{}) {
	if c == nil {
		<-stop
		return
	}
	tick := time.NewTicker(refEvery)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			gate.Lock()
			c.block()
			gate.Unlock()
		}
	}
}

// reference is the calibration's work, touching nothing of the library. It
// mixes what the workloads spend their time on: splitting and counting
// tokens in a map, sorting integers, gathering floats through an index as
// a sparse matrix product does, hashing, and formatting and parsing
// numbers. Once built it allocates nothing, so it leaves the allocation
// metrics of the operations around it untouched.
type reference struct {
	text   string
	counts map[string]int32
	keys   []uint32
	sorted []uint32
	index  []int32
	values []float64
	blob   []byte
	buf    []byte
	sink   float64
}

// newReference builds the reference's inputs from a fixed generator, so
// every run on every commit does the same work, and runs it once so its
// map and buffers reach their final size.
func newReference() *reference {
	x := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	words := make([]string, 5000)
	for i := range words {
		var b strings.Builder
		for k := 3 + int(next()%7); k > 0; k-- {
			b.WriteByte(byte('a' + next()%26))
		}
		words[i] = b.String()
	}
	var text strings.Builder
	for i := 0; i < 60000; i++ {
		text.WriteString(words[next()%uint64(len(words))])
		text.WriteByte(' ')
	}
	r := &reference{
		text:   text.String(),
		counts: make(map[string]int32),
		keys:   make([]uint32, 150000),
		sorted: make([]uint32, 150000),
		index:  make([]int32, 400000),
		values: make([]float64, 1<<20),
		blob:   make([]byte, 256<<10),
		buf:    make([]byte, 0, 64<<10),
	}
	for i := range r.keys {
		r.keys[i] = uint32(next())
	}
	for i := range r.index {
		r.index[i] = int32(next() % uint64(len(r.values)))
	}
	for i := range r.values {
		r.values[i] = float64(next()%1000) / 1000
	}
	for i := range r.blob {
		r.blob[i] = byte(next())
	}
	r.run()
	return r
}

// run does the reference work once and returns its wall time in
// milliseconds.
func (r *reference) run() float64 {
	start := time.Now()
	clear(r.counts)
	for text := r.text; len(text) > 0; {
		i := strings.IndexByte(text, ' ')
		if i < 0 {
			i = len(text)
		}
		if i > 0 {
			r.counts[text[:i]]++ // keys are substrings of text: no copy
		}
		text = text[min(i+1, len(text)):]
	}
	copy(r.sorted, r.keys)
	slices.Sort(r.sorted)
	var acc float64
	for i, j := range r.index {
		acc += r.values[j] * r.values[(int(j)+i)&(len(r.values)-1)]
	}
	sum := sha256.Sum256(r.blob)
	buf := r.buf[:0]
	for _, v := range r.values[:4000] {
		buf = strconv.AppendFloat(buf, v*acc, 'g', -1, 64)
		buf = append(buf, ' ')
	}
	for rest := buf; len(rest) > 0; {
		i := slices.Index(rest, ' ')
		v, err := strconv.ParseFloat(string(rest[:i]), 64) // no copy: converted for the call only
		if err != nil {
			panic(err) // the buffer holds only numbers AppendFloat wrote
		}
		acc += v
		rest = rest[i+1:]
	}
	r.buf = buf
	r.sink += acc + float64(len(r.counts)) + float64(r.sorted[len(r.sorted)/2]) +
		float64(binary.LittleEndian.Uint32(sum[:]))
	return msSince(start)
}
