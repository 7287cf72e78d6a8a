// Package dataset defines the record model of the reproduction and provides
// the three benchmark replicas (Restaurant, Product, Paper). The original
// paper evaluates on Fodors-Zagat, Abt-Buy and Cora, which are downloaded
// from URLs and are unavailable offline; the generators in this package
// replicate each dataset's published statistics and noise character (see
// DESIGN.md §1.4 for the substitution argument). Real data can be supplied
// through LoadCSV.
package dataset

import (
	"fmt"
	"sort"
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
	byEntity := make(map[int][]int32)
	for _, r := range d.Records {
		if r.EntityID < 0 {
			continue
		}
		byEntity[r.EntityID] = append(byEntity[r.EntityID], int32(r.ID))
	}
	out := make(map[uint64]bool)
	for _, recs := range byEntity {
		for a := 0; a < len(recs); a++ {
			for b := a + 1; b < len(recs); b++ {
				i, j := recs[a], recs[b]
				if d.NumSources > 1 && d.Records[i].Source == d.Records[j].Source {
					continue
				}
				out[index.Key(i, j)] = true
			}
		}
	}
	return out
}

// NumTrueMatches returns the number of ground-truth matching pairs.
func (d *Dataset) NumTrueMatches() int { return len(d.TrueMatches()) }

// ClusterSizes returns the ground-truth cluster sizes in descending order.
func (d *Dataset) ClusterSizes() []int {
	byEntity := make(map[int]int)
	for _, r := range d.Records {
		if r.EntityID >= 0 {
			byEntity[r.EntityID]++
		}
	}
	sizes := make([]int, 0, len(byEntity))
	for _, s := range byEntity {
		sizes = append(sizes, s)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
	return sizes
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
