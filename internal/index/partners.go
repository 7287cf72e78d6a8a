package index

import (
	"math"
	"slices"
	"sync"

	"repro/internal/parallel"
)

// survives is the blocking survival rule shared by the batch build and the
// incremental index: two records with la and lb kept terms, sharing
// shared eligible terms, form a candidate pair when shared reaches
// MinSharedTerms (floored at 1) and, with MinJaccard set, when shared over
// the union la + lb − shared reaches MinJaccard.
//
// For fixed records the rule is monotone in shared: the ratio's numerator
// grows and its denominator shrinks, and float division rounds
// monotonically, so a count that fails it fails at every smaller count.
// The partner scan's upper-bound check relies on that.
func (o *BatchOptions) survives(shared, la, lb int32) bool {
	if shared < max(int32(o.MinSharedTerms), 1) {
		return false
	}
	if o.MinJaccard > 0 {
		union := int(la) + int(lb) - int(shared)
		if union <= 0 || float64(shared)/float64(union) < o.MinJaccard {
			return false
		}
	}
	return true
}

// minShared returns the fewest eligible terms a record with docLen kept
// terms must share with any partner for survives to hold: MinSharedTerms
// (floored at 1), and with MinJaccard set the smallest k with
// k/docLen >= MinJaccard. A partner's kept terms include every shared
// one, so the union is at least docLen and the Jaccard ratio is at most
// k/docLen, in float arithmetic too. The ceiling is only a first guess
// that the loop lowers while float division still admits a smaller k, so
// the result never exceeds the true minimum.
func (o *BatchOptions) minShared(docLen int32) int32 {
	k := max(int32(o.MinSharedTerms), 1)
	if o.MinJaccard > 0 && docLen > 0 {
		l := float64(docLen)
		j := int32(math.Ceil(o.MinJaccard * l))
		for j > k && float64(j-1)/l >= o.MinJaccard {
			j--
		}
		k = max(k, j)
	}
	return k
}

// survivor is one candidate pair that passed every blocking filter: record
// r, the record whose partners were scanned, and its partner q (r < q in
// the forward scan).
type survivor struct {
	r, q   int32
	shared int32 // number of eligible shared terms
}

// scanWork counts a partner scan's work: the posting entries it probed
// and the suffix terms it looked up in a candidate's term list. The
// work-bound tests read it.
type scanWork struct {
	probes, lookups int64
}

func (w *scanWork) add(o scanWork) {
	w.probes += o.probes
	w.lookups += o.lookups
}

// partnerScan is the index's one candidate rule. Given a record's eligible
// terms it finds every partner the record forms a candidate pair with;
// the batch build, the index's rebuild and its per-mutation row scans all
// run it. It reads an inverted index and the records' term lists, and
// carries one scanner's scratch, so each worker owns one.
//
// The scan is the prefix filter of AllPairs and PPJoin. A surviving
// partner shares at least o = minShared(docLen[r]) of r's e eligible
// terms, so it shares one of the e-o+1 rarest: only their postings are
// probed, counting c prefix terms per candidate. A candidate can share at
// most c + (o-1) terms, so one that fails survives at that bound is
// dropped before any lookup; the rest count their suffix terms by binary
// search in the candidate's sorted term list and face survives exactly.
type partnerScan struct {
	postings [][]int32 // term -> ascending record positions (eligible terms are read)
	terms    [][]int32 // record -> ascending terms (suffix lookups)
	docLen   []int32   // record -> kept-term count (the Jaccard floor)
	source   []int32   // record -> source label; read only with CrossSourceOnly
	opts     *BatchOptions

	// Scratch: the current record's eligible terms keyed by (df, term),
	// the per-record shared counts (all zero between records), the
	// candidates in first-touch order, and a batch scan chunk's survivors.
	keys    []uint64
	cnt     []int32
	touched []candidate
	out     []survivor
	work    scanWork
}

// candidate is a record a scan reached, with its kept-term count. The
// count is read when the record is first reached, beside the walk's read
// of its counter, which measured faster than reading it in the
// verification loop.
type candidate struct {
	q, len int32
}

// bind points the scanner at an inverted index over n records, growing
// its counters to match.
func (s *partnerScan) bind(postings, terms [][]int32, docLen, source []int32, opts *BatchOptions, n int) {
	s.postings, s.terms, s.docLen, s.source, s.opts = postings, terms, docLen, source, opts
	s.cnt = Grow(s.cnt, n)
}

// unbind drops the scanner's references to the index it read, so kept
// scratch never pins a replaced one.
func (s *partnerScan) unbind() {
	s.postings, s.terms, s.docLen, s.source, s.opts = nil, nil, nil, nil, nil
}

// add queues an eligible term of the record about to be scanned.
func (s *partnerScan) add(t int32) {
	s.keys = append(s.keys, uint64(len(s.postings[t]))<<32|uint64(uint32(t)))
}

// partners appends to out the candidate pairs record r forms with records
// q > lo, over the eligible terms queued by add since the last call (lo =
// r gives the forward scan, lo = -1 every other record). Posting lists are
// walked from their end down to lo, so the forward scan needs no search
// for its start.
func (s *partnerScan) partners(r, lo int32, out []survivor) []survivor {
	keys := s.keys
	s.keys = keys[:0]
	o := s.opts.minShared(s.docLen[r])
	if int32(len(keys)) < o {
		return out
	}
	// Rarest first, by an insertion sort: a record has a dozen or so terms.
	//lint:ignore guardloop one record's terms and their posting lists; the batch scan polls per record, and a mutation must run to completion
	for i := 1; i < len(keys); i++ {
		k, j := keys[i], i-1
		for ; j >= 0 && keys[j] > k; j-- {
			keys[j+1] = keys[j]
		}
		keys[j+1] = k
	}
	split := len(keys) - int(o) + 1
	prefix, suffix := keys[:split], keys[split:]

	cnt, touched := s.cnt, s.touched[:0]
	cross := s.opts.CrossSourceOnly
	for _, k := range prefix {
		p := s.postings[uint32(k)]
		i := len(p) - 1
		for ; i >= 0 && p[i] > lo; i-- {
			q := p[i]
			if q == r || cross && s.source[q] == s.source[r] {
				continue
			}
			if cnt[q] == 0 {
				touched = append(touched, candidate{q, s.docLen[q]})
			}
			cnt[q]++
		}
		s.work.probes += int64(len(p) - 1 - i)
	}
	bound, lr := int32(len(suffix)), s.docLen[r]
	for _, t := range touched {
		c := cnt[t.q]
		cnt[t.q] = 0
		if bound > 0 {
			// Sharing every suffix term is the most q can do.
			if !s.opts.survives(c+bound, lr, t.len) {
				continue
			}
			tq := s.terms[t.q]
			for _, k := range suffix {
				if _, ok := slices.BinarySearch(tq, int32(uint32(k))); ok {
					c++
				}
			}
			s.work.lookups += int64(bound)
		}
		if s.opts.survives(c, lr, t.len) {
			out = append(out, survivor{r: r, q: t.q, shared: c})
		}
	}
	s.touched = touched[:0]
	return out
}

var partnerScanPool = sync.Pool{New: func() any { return &partnerScan{} }}

// scanPartners is the forward partner scan of the batch build and of the
// index's rebuild: every pair is found once, at its smaller endpoint, by
// partnerScan. docs[r] lists record r's terms in ascending order, eligible
// flags the terms blocking enumerates, and post[t] holds term t's records
// in ascending order (only eligible terms are read). docLen feeds the
// Jaccard floor and source the CrossSourceOnly filter; source may be nil
// without that filter. It also returns the work the scan did.
//
// Records fan out over parallel.ForGrain, each chunk with a pooled
// scanner. A chunk collects its survivors in the scanner's reused buffer
// and copies them out once, at their exact count, into the slot of its
// chunk index; the slots are concatenated in chunk order, so the survivor
// sequence is a pure function of the input at every worker count. When
// opts.Check reports cancellation the scan stops early and the caller
// reads the checkpoint's error.
func scanPartners(docs, post [][]int32, eligible []bool, docLen, source []int32, opts *BatchOptions) ([]survivor, scanWork) {
	n := len(docs)
	work := 0
	for t, ok := range eligible {
		if ok {
			work += len(post[t]) * len(post[t])
		}
	}
	grain := parallel.GrainFor(n, work, 1<<16)
	numChunks := (n + grain - 1) / grain
	chunkOut := make([][]survivor, numChunks)
	chunkWork := make([]scanWork, numChunks)
	parallel.ForGrain(opts.Workers, n, grain, func(lo, hi int) {
		s := partnerScanPool.Get().(*partnerScan)
		s.bind(post, docs, docLen, source, opts, n)
		out := s.out[:0]
		for r := lo; r < hi; r++ {
			if opts.Check.Tick() != nil {
				break
			}
			for _, t := range docs[r] {
				if eligible[t] {
					s.add(t)
				}
			}
			out = s.partners(int32(r), int32(r), out)
		}
		if len(out) > 0 {
			chunkOut[lo/grain] = append(make([]survivor, 0, len(out)), out...)
		}
		s.out = out
		chunkWork[lo/grain], s.work = s.work, scanWork{}
		s.unbind()
		partnerScanPool.Put(s)
	})

	total := 0
	for _, out := range chunkOut {
		total += len(out)
	}
	survivors := make([]survivor, 0, total)
	var w scanWork
	for c, out := range chunkOut {
		survivors = append(survivors, out...)
		w.add(chunkWork[c])
	}
	return survivors, w
}
