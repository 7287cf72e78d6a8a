package er_test

import (
	"context"
	"fmt"

	"repro"
)

// ExampleResolve demonstrates the one-call API: hand records in, get
// matched pairs and entity clusters out. No labels, no thresholds to tune.
func ExampleResolve() {
	ds := er.NewDataset("catalog", []er.Record{
		{Text: "sony turntable pslx350h belt drive audio"},
		{Text: "sony pslx350h turntable with dust cover audio"},
		{Text: "pioneer receiver vsx321 surround stereo"},
	})
	res, err := er.Resolve(ds, er.DefaultOptions())
	if err != nil {
		panic(err)
	}
	for _, m := range res.Matches {
		fmt.Printf("records %d and %d refer to the same entity (p=%.2f)\n", m.I, m.J, m.Probability)
	}
	// Output:
	// records 0 and 1 refer to the same entity (p=1.00)
}

// ExampleNewPipelineContext shows the staged API: inspect candidates,
// compare methods, and read the learned term weights.
func ExampleNewPipelineContext() {
	ds := er.NewDataset("catalog", []er.Record{
		{Text: "canon powershot a590 digital camera"},
		{Text: "canon a590 powershot camera silver"},
		{Text: "canon printer pixma mp280"},
		{Text: "canon pixma mp280 printer ink"},
	})
	ctx := context.Background()
	p, err := er.NewPipelineContext(ctx, ds, er.DefaultOptions())
	if err != nil {
		panic(err)
	}
	out, err := p.FusionContext(ctx)
	if err != nil {
		panic(err)
	}

	fmt.Printf("candidate pairs: %d\n", p.NumCandidates())
	weights := map[string]float64{}
	for _, tw := range p.TopTerms(out.TermWeights, 0) {
		weights[tw.Term] = tw.Weight
	}
	// The model code separates entities; the brand is shared by all four
	// records and carries no discriminative signal.
	fmt.Println("model code beats brand:", weights["a590"] > weights["canon"])
	// Output:
	// candidate pairs: 2
	// model code beats brand: true
}

// ExampleDataset_WriteCSV round-trips a dataset through its CSV format.
func ExampleDataset_WriteCSV() {
	ds := er.NewDataset("tiny", []er.Record{
		{Text: "hello world", Entity: "greetings"},
	})
	fmt.Println(ds.NumRecords(), ds.HasGroundTruth())
	// Output:
	// 1 true
}
