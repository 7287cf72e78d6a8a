// Package dataset defines the record model of the reproduction and provides
// the three benchmark replicas (Restaurant, Product, Paper). The original
// paper evaluates on Fodors-Zagat, Abt-Buy and Cora, which are downloaded
// from URLs and are unavailable offline; the generators in this package
// replicate each dataset's published statistics and noise character (see
// DESIGN.md §1.4 for the substitution argument). Real data can be supplied
// through LoadCSVCheck.
package dataset

import (
	"fmt"
	"strings"

	"repro/internal/index"
)

// Record is one textual record to be resolved.
type Record struct {
	// ID is the dense index of the record in its dataset.
	ID int
	// EntityID is the ground-truth entity label, or -1 when unknown.
	EntityID int
	// Source identifies the origin of the record (0 for single-source
	// datasets; 0 or 1 for two-source datasets such as Product).
	Source int
	// Fields holds the structured view, in schema order.
	Fields []Field
	// Text is the concatenated textual content handed to the pipeline.
	Text string
}

// Field is one named attribute of a record.
type Field struct {
	Name, Value string
}

// Dataset is a collection of records with optional ground truth.
type Dataset struct {
	Name       string
	Records    []Record
	NumSources int
}

// NumRecords returns the record count.
func (d *Dataset) NumRecords() int { return len(d.Records) }

// Texts returns the record texts in ID order.
func (d *Dataset) Texts() []string {
	out := make([]string, len(d.Records))
	for i, r := range d.Records {
		out[i] = r.Text
	}
	return out
}

// Sources returns the source label of every record.
func (d *Dataset) Sources() []int {
	out := make([]int, len(d.Records))
	for i, r := range d.Records {
		out[i] = r.Source
	}
	return out
}

// HasGroundTruth reports whether every record carries an entity label.
func (d *Dataset) HasGroundTruth() bool {
	for _, r := range d.Records {
		if r.EntityID < 0 {
			return false
		}
	}
	return len(d.Records) > 0
}

// TrueMatches returns the set of ground-truth matching pairs, keyed with
// index.Key. For multi-source datasets only cross-source pairs count,
// matching the benchmark convention (Abt-Buy counts abt×buy pairs).
func (d *Dataset) TrueMatches() map[uint64]bool {
	order, start := d.byEntity()
	out := make(map[uint64]bool, d.countMatches(order, start))
	d.eachMatch(order, start, func(i, j int32) { out[index.Key(i, j)] = true })
	return out
}

// NumTrueMatches returns the number of ground-truth matching pairs.
func (d *Dataset) NumTrueMatches() int { return d.countMatches(d.byEntity()) }

// byEntity groups the labelled records' IDs by entity with one counting
// sort: group e's IDs are order[start[e]:start[e+1]], ascending. Labels are
// dense in practice (NewDataset and LoadCSV number entities in order of
// first appearance), so they index the groups directly; sparser labels are
// renumbered densely first. Some groups may be empty.
func (d *Dataset) byEntity() (order, start []int32) {
	n := len(d.Records)
	maxLabel := -1
	for _, r := range d.Records {
		maxLabel = max(maxLabel, r.EntityID)
	}
	buf := make([]int32, 4*n+2)
	ent, order, start := buf[:n], buf[n:2*n], buf[2*n:]
	groups := maxLabel + 1
	if groups <= 2*n {
		for k, r := range d.Records {
			ent[k] = int32(max(r.EntityID, -1))
		}
	} else {
		rank := make(map[int]int32)
		for k, r := range d.Records {
			ent[k] = -1
			if r.EntityID >= 0 {
				e, ok := rank[r.EntityID]
				if !ok {
					e = int32(len(rank))
					rank[r.EntityID] = e
				}
				ent[k] = e
			}
		}
		groups = len(rank)
	}
	start = start[:groups+1]
	for _, e := range ent {
		if e >= 0 {
			start[e+1]++
		}
	}
	for e := 1; e < len(start); e++ {
		start[e] += start[e-1]
	}
	order = order[:start[groups]]
	for k, e := range ent {
		if e >= 0 {
			order[start[e]] = int32(d.Records[k].ID)
			start[e]++
		}
	}
	// The fill advanced each start to the next group's; shift back.
	copy(start[1:], start)
	start[0] = 0
	return order, start
}

// eachMatch calls fn(i, j) for every true match, i before j in its
// entity's group.
func (d *Dataset) eachMatch(order, start []int32, fn func(i, j int32)) {
	for e := 0; e+1 < len(start); e++ {
		recs := order[start[e]:start[e+1]]
		for a, i := range recs {
			for _, j := range recs[a+1:] {
				if d.NumSources > 1 && d.Records[i].Source == d.Records[j].Source {
					continue
				}
				fn(i, j)
			}
		}
	}
}

// countMatches counts the true matches: C(n, 2) per entity of n records
// when every pair counts, one per cross-source pair otherwise.
func (d *Dataset) countMatches(order, start []int32) int {
	n := 0
	if d.NumSources > 1 {
		d.eachMatch(order, start, func(_, _ int32) { n++ })
		return n
	}
	for e := 0; e+1 < len(start); e++ {
		size := int(start[e+1] - start[e])
		n += size * (size - 1) / 2
	}
	return n
}

// Validate checks internal consistency of IDs and sources.
func (d *Dataset) Validate() error {
	for i, r := range d.Records {
		if r.ID != i {
			return fmt.Errorf("dataset %s: record %d has ID %d", d.Name, i, r.ID)
		}
		if r.Source < 0 || r.Source >= maxInt(d.NumSources, 1) {
			return fmt.Errorf("dataset %s: record %d has source %d outside [0,%d)", d.Name, i, r.Source, d.NumSources)
		}
		if strings.TrimSpace(r.Text) == "" {
			return fmt.Errorf("dataset %s: record %d has empty text", d.Name, i)
		}
	}
	return nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// joinFields assembles Text from fields, skipping empties.
func joinFields(fields []Field) string {
	parts := make([]string, 0, len(fields))
	for _, f := range fields {
		if f.Value != "" {
			parts = append(parts, f.Value)
		}
	}
	return strings.Join(parts, " ")
}
