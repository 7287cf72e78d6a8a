package er

import (
	"context"
	"fmt"
	"io"
	"os"

	"repro/internal/dataset"
	"repro/internal/guard"
)

// Record is one textual record to resolve.
type Record struct {
	// Text is the record's textual content (all attributes concatenated).
	Text string
	// Source identifies the record's origin for multi-source datasets
	// (e.g. 0 = abt, 1 = buy). Leave 0 for single-source data.
	Source int
	// Entity is an optional ground-truth label. Records with equal
	// non-empty labels refer to the same entity; when every record is
	// labeled, Resolve reports evaluation metrics.
	Entity string
}

// Dataset is a collection of records.
type Dataset struct {
	ds *dataset.Dataset
}

// NewDataset builds a dataset from records. Source values must be dense
// starting at 0.
func NewDataset(name string, records []Record) *Dataset {
	d := &dataset.Dataset{Name: name, NumSources: 1}
	entities := make(map[string]int)
	for i, r := range records {
		entity := -1
		if r.Entity != "" {
			id, ok := entities[r.Entity]
			if !ok {
				id = len(entities)
				entities[r.Entity] = id
			}
			entity = id
		}
		if r.Source+1 > d.NumSources {
			d.NumSources = r.Source + 1
		}
		d.Records = append(d.Records, dataset.Record{
			ID:       i,
			EntityID: entity,
			Source:   r.Source,
			Text:     r.Text,
		})
	}
	return &Dataset{ds: d}
}

// LoadCSV reads a dataset from a CSV stream with header id,entity,source,text.
// It is LoadCSVContext with a background context: malformed input surfaces
// as an error wrapping ErrBadData.
func LoadCSV(r io.Reader, name string) (*Dataset, error) {
	return LoadCSVContext(context.Background(), r, name)
}

// LoadCSVContext reads a dataset from a CSV stream under ctx. The row loop
// polls a cancellation checkpoint, so an oversized or stalled upload aborts
// mid-parse — with an error wrapping context.Canceled or
// context.DeadlineExceeded — instead of only after the whole stream has
// been consumed. Unreadable or structurally malformed input surfaces as an
// error wrapping ErrBadData (retrying the same bytes cannot succeed).
func LoadCSVContext(ctx context.Context, r io.Reader, name string) (*Dataset, error) {
	// Stride 1: a CSV row parse is µs-scale work, so an un-amortized channel
	// poll per row is noise — and amortization would blind small files to an
	// already-canceled context.
	check := guard.FromContext(ctx).WithStride(1)
	ds, err := dataset.LoadCSVCheck(r, name, check)
	if err != nil {
		if ctxErr := check.Err(); ctxErr != nil {
			return nil, fmt.Errorf("er: csv load aborted: %w", ctxErr)
		}
		return nil, fmt.Errorf("%w: %w", ErrBadData, err)
	}
	return &Dataset{ds: ds}, nil
}

// LoadCSVFile reads a dataset from a CSV file. Malformed content surfaces
// as an error wrapping ErrBadData, like LoadCSVContext.
func LoadCSVFile(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("er: opening dataset: %w", err)
	}
	defer f.Close()
	return LoadCSVContext(context.Background(), f, path)
}

// WriteCSV serializes the dataset in the LoadCSV format.
func (d *Dataset) WriteCSV(w io.Writer) error { return dataset.WriteCSV(w, d.ds) }

// Name returns the dataset name.
func (d *Dataset) Name() string { return d.ds.Name }

// NumRecords returns the number of records.
func (d *Dataset) NumRecords() int { return d.ds.NumRecords() }

// NumSources returns the number of record sources.
func (d *Dataset) NumSources() int { return d.ds.NumSources }

// Text returns the text of record i.
func (d *Dataset) Text(i int) string { return d.ds.Records[i].Text }

// HasGroundTruth reports whether every record carries an entity label.
func (d *Dataset) HasGroundTruth() bool { return d.ds.HasGroundTruth() }

// NumTrueMatches returns the number of ground-truth matching pairs
// (cross-source only for multi-source datasets).
func (d *Dataset) NumTrueMatches() int { return d.ds.NumTrueMatches() }

// ReplicaConfig parameterizes the synthetic benchmark replicas.
type ReplicaConfig struct {
	// Seed drives all generator randomness. Equal configurations always
	// produce identical datasets.
	Seed int64
	// Scale multiplies the published dataset sizes; 1.0 reproduces them
	// exactly (858 / 1081+1092 / 1865 records).
	Scale float64
}

func (c ReplicaConfig) gen() dataset.GenConfig {
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return dataset.GenConfig{Seed: c.Seed, Scale: c.Scale}
}

// RestaurantReplica generates the Restaurant benchmark replica: 858
// single-source restaurant records with 106 duplicate pairs.
func RestaurantReplica(cfg ReplicaConfig) *Dataset {
	return &Dataset{ds: dataset.GenRestaurant(cfg.gen())}
}

// ProductReplica generates the Product (Abt-Buy) replica: 1081 + 1092
// records from two sources with 1092 matching cross-source pairs.
func ProductReplica(cfg ReplicaConfig) *Dataset {
	return &Dataset{ds: dataset.GenProduct(cfg.gen())}
}

// PaperReplica generates the Paper (Cora) replica: 1865 bibliography records
// with 96 clusters of three or more records, the largest holding 192.
func PaperReplica(cfg ReplicaConfig) *Dataset {
	return &Dataset{ds: dataset.GenPaper(cfg.gen())}
}

// SyntheticConfig parameterizes SyntheticDataset, the open-scale corpus
// generator. Every zero-value field selects a documented default, so
// SyntheticConfig{Records: 100000} is a complete configuration; equal
// configs always generate identical datasets.
type SyntheticConfig struct {
	// Seed drives all randomness. Zero selects the default seed 1.
	Seed int64
	// Records is the exact record count. Values below 1 default to 10000.
	Records int
	// DuplicateRate is the per-step probability of growing an entity's
	// cluster by one more record (geometric, truncated at MaxClusterSize):
	// 0 yields all singletons. Clamped to [0, 0.95].
	DuplicateRate float64
	// MaxClusterSize caps records per entity. Below 1 defaults to 8.
	MaxClusterSize int
	// Sources is the number of record origins; duplicates rotate through
	// them so multi-source configs always produce cross-source matching
	// pairs. Below 1 defaults to 1.
	Sources int
	// VocabSize is the shared filler vocabulary size. Below 16 defaults to
	// 4096; above 100000 clamps.
	VocabSize int
	// ZipfExponent skews term draws toward the vocabulary head; larger is
	// more skewed. At or below 0 defaults to 2.0.
	ZipfExponent float64
	// TokensPerRecord is the approximate description length. Below 1
	// defaults to 8.
	TokensPerRecord int
	// Name labels the dataset. Empty defaults to "Synthetic".
	Name string
}

// SyntheticDataset generates a labeled corpus at an arbitrary scale —
// 10^5 to 10^7 records — with Zipf-skewed term distributions, a tunable
// duplication rate and optional multi-source structure. Unlike the replica
// generators, which are pinned to the published benchmark sizes, this is
// the data source for the scaling benchmarks and cmd/ergen's -records
// mode.
func SyntheticDataset(cfg SyntheticConfig) *Dataset {
	return &Dataset{ds: dataset.GenSynthetic(dataset.SyntheticConfig{
		Seed:            cfg.Seed,
		Records:         cfg.Records,
		DuplicateRate:   cfg.DuplicateRate,
		MaxClusterSize:  cfg.MaxClusterSize,
		Sources:         cfg.Sources,
		VocabSize:       cfg.VocabSize,
		ZipfExponent:    cfg.ZipfExponent,
		TokensPerRecord: cfg.TokensPerRecord,
		Name:            cfg.Name,
	})}
}

// internal returns the underlying dataset for same-module consumers
// (cmd/erbench and the benchmark suite).
func (d *Dataset) internal() *dataset.Dataset { return d.ds }
