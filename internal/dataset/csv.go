package dataset

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"strconv"

	"repro/internal/guard"
)

// CSV layout used by WriteCSV/LoadCSVCheck:
//
//	id,entity,source,text
//
// entity may be empty (unknown ground truth). Extra columns beyond the
// fourth are appended to the text, which makes it easy to feed real
// benchmark exports whose attributes are spread over several columns.

// WriteCSV serializes the dataset, one record per row with a header.
func WriteCSV(w io.Writer, d *Dataset) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"id", "entity", "source", "text"}); err != nil {
		return err
	}
	for _, r := range d.Records {
		entity := ""
		if r.EntityID >= 0 {
			entity = strconv.Itoa(r.EntityID)
		}
		row := []string{strconv.Itoa(r.ID), entity, strconv.Itoa(r.Source), r.Text}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// LoadCSVCheck parses a dataset written by WriteCSV (or any file with the
// same header). Records are re-indexed densely in file order. The
// cancellation checkpoint is polled once per row, so a huge (or
// maliciously unbounded) upload can be aborted mid-parse instead of only
// after the whole stream has been consumed. A canceled checkpoint surfaces
// its cause (context.Canceled / DeadlineExceeded); a nil checkpoint never
// cancels.
func LoadCSVCheck(r io.Reader, name string, check *guard.Checkpoint) (*Dataset, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	d := &Dataset{Name: name, NumSources: 1}
	entityIDs := make(map[string]int)
	rowIdx, sawHeader := 0, false
	for {
		if err := check.Tick(); err != nil {
			return nil, fmt.Errorf("dataset: csv load aborted at row %d: %w", rowIdx, err)
		}
		row, err := cr.Read()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: reading csv: %w", err)
		}
		if rowIdx == 0 && len(row) >= 1 && row[0] == "id" {
			rowIdx, sawHeader = 1, true
			continue
		}
		rowIdx++
		if len(row) < 4 {
			return nil, fmt.Errorf("dataset: row %d has %d columns, want >=4", rowIdx-1, len(row))
		}
		entity := -1
		if row[1] != "" {
			id, ok := entityIDs[row[1]]
			if !ok {
				id = len(entityIDs)
				entityIDs[row[1]] = id
			}
			entity = id
		}
		source, err := strconv.Atoi(row[2])
		if err != nil {
			return nil, fmt.Errorf("dataset: row %d: bad source %q: %w", rowIdx-1, row[2], err)
		}
		text := row[3]
		for _, extra := range row[4:] {
			if extra != "" {
				text += " " + extra
			}
		}
		if source+1 > d.NumSources {
			d.NumSources = source + 1
		}
		d.Records = append(d.Records, Record{
			ID:       len(d.Records),
			EntityID: entity,
			Source:   source,
			Text:     text,
		})
	}
	if len(d.Records) == 0 && !sawHeader {
		return nil, fmt.Errorf("dataset: empty csv")
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}
