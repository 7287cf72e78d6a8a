package experiments

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro"
)

// Tests run at a small scale so the whole suite stays quick; the full-scale
// numbers are produced by cmd/erbench and recorded in EXPERIMENTS.md.
func testConfig() Config { return Config{Seed: 1, Scale: 0.15} }

// f1Tol is the tolerance of every pinned F1 and ρ below, as in the root
// package's TestReplicaF1Pinned. The pins are the harness outputs at
// testConfig() (or the test's own config); an intended semantic change to
// blocking or fusion must move them knowingly.
const f1Tol = 0.005

// near reports a pinned value drifting more than tol.
func near(t *testing.T, label string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %.6f, want %.6f ± %g", label, got, want, tol)
	}
}

// pinnedFusionF1 is the full framework's F1 per replica at testConfig().
var pinnedFusionF1 = [3]float64{0.8421052631578948, 0.9250814332247558, 0.846820809248555}

func TestConfigDatasets(t *testing.T) {
	cfg := testConfig()
	for _, name := range AllDatasets {
		d, err := cfg.replica(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d.NumRecords() == 0 {
			t.Errorf("%s: empty dataset", name)
		}
		if !d.HasGroundTruth() {
			t.Errorf("%s: replicas must carry ground truth", name)
		}
	}
}

func TestConfigUnknownDataset(t *testing.T) {
	if _, err := testConfig().replica("Nope"); !errors.Is(err, er.ErrInvalidOptions) {
		t.Errorf("unknown dataset: err = %v, want ErrInvalidOptions", err)
	}
	if _, err := testConfig().Bench("Nope"); !errors.Is(err, er.ErrInvalidOptions) {
		t.Errorf("unknown bench dataset: err = %v, want ErrInvalidOptions", err)
	}
}

func TestRunTable2(t *testing.T) {
	res, err := RunTable2(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 15 {
		t.Fatalf("rows = %d, want 15", len(res.Rows))
	}
	implemented := 0
	for _, row := range res.Rows {
		if !row.Backend {
			if !math.IsNaN(row.Product.Measured) {
				t.Errorf("%s: reported-only row must have NaN measured value", row.Method)
			}
			continue
		}
		implemented++
		for _, cell := range []Cell{row.Restaurant, row.Product, row.Paper} {
			if math.IsNaN(cell.Measured) || cell.Measured < 0 || cell.Measured > 1 {
				t.Errorf("%s: measured F1 %v out of range", row.Method, cell.Measured)
			}
		}
	}
	if implemented != 6 {
		t.Errorf("implemented rows = %d, want 6", implemented)
	}
	for method, want := range map[string][3]float64{
		"Jaccard":         {1, 0.8328445747800586, 0.8454258675078864},
		"TF-IDF":          {1, 0.8797653958944283, 0.7527932960893855},
		"SimRank":         {1, 0.8680351906158358, 0.8292682926829269},
		"PageRank":        {0.875, 0.802030456852792, 0.7764371894960964},
		"Hybrid":          {0.9696969696969697, 0.8275862068965518, 0.8076639646278556},
		"ITER+CliqueRank": pinnedFusionF1,
	} {
		row := res.Row(method)
		if row == nil {
			t.Errorf("missing row %s", method)
			continue
		}
		for di, cell := range []Cell{row.Restaurant, row.Product, row.Paper} {
			near(t, method+"/"+string(AllDatasets[di])+" F1", cell.Measured, want[di], f1Tol)
		}
	}
	fusion := res.Row("ITER+CliqueRank")
	simrank := res.Row("SimRank")
	if fusion == nil || simrank == nil {
		t.Fatal("missing rows")
	}
	// Shape check on the Product column (the paper's headline): the fusion
	// framework must beat the naive SimRank baseline.
	if fusion.Product.Measured <= simrank.Product.Measured {
		t.Errorf("fusion %.3f must beat SimRank %.3f on Product",
			fusion.Product.Measured, simrank.Product.Measured)
	}
	out := res.Render()
	for _, want := range []string{"Table II", "CrowdER", "(reported)", "ITER+CliqueRank"} {
		if !strings.Contains(out, want) {
			t.Errorf("render output missing %q", want)
		}
	}
}

func TestRunTable3(t *testing.T) {
	res, err := RunTable3(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
	pinned := map[DatasetName][2]int{Restaurant: {129, 22}, Product: {326, 230}, Paper: {280, 1067}}
	for _, row := range res.Rows {
		if got, want := [2]int{row.GraphNodes, row.GraphEdges}, pinned[row.Dataset]; got != want {
			t.Errorf("%s: G_r nodes, edges = %v, want %v", row.Dataset, got, want)
		}
		if row.TotalTime <= 0 || row.ITERTime <= 0 || row.CliqueRankTime <= 0 {
			t.Errorf("%s: missing timings %+v", row.Dataset, row)
		}
		if row.Speedup <= 1 {
			t.Errorf("%s: CliqueRank should be faster than RSS, speedup %.2f", row.Dataset, row.Speedup)
		}
	}
	if !strings.Contains(res.Render(), "Speedup vs RSS") {
		t.Error("render output missing speedup row")
	}
}

func TestRunTable4(t *testing.T) {
	res, err := RunTable4(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	pinnedPageRank := [3]float64{-0.3049543870994436, -0.540461471955361, -0.4035045988533559}
	pinnedITER := [3]float64{0.548811018618977, 0.3817459016326123, 0.35672494970512003}
	for di, name := range AllDatasets {
		iter := res.ITER[di].Measured
		pr := res.PageRank[di].Measured
		near(t, string(name)+" ITER rho", iter, pinnedITER[di], f1Tol)
		near(t, string(name)+" PageRank rho", pr, pinnedPageRank[di], f1Tol)
		if iter <= pr {
			t.Errorf("%s: ITER rho %.3f must exceed PageRank rho %.3f", name, iter, pr)
		}
		if iter < -1 || iter > 1 || pr < -1 || pr > 1 {
			t.Errorf("%s: rho out of [-1,1]", name)
		}
	}
	if !strings.Contains(res.Render(), "Spearman") {
		t.Error("render output missing title")
	}
}

func TestRunTable5(t *testing.T) {
	res, err := RunTable5(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Iterations) != 5 {
		t.Fatalf("iterations = %d, want 5", len(res.Iterations))
	}
	pinned := [5][3]float64{
		{0.8421052631578948, 0.9285714285714286, 0.846820809248555},
		{0.8421052631578948, 0.9250814332247558, 0.8474331164135935},
		pinnedFusionF1,
		pinnedFusionF1,
		pinnedFusionF1,
	}
	for di := range AllDatasets {
		prev := time.Duration(0)
		for _, it := range res.Iterations {
			f1 := it.F1[di].Measured
			near(t, fmt.Sprintf("round %d %s F1", it.Iteration, AllDatasets[di]), f1, pinned[it.Iteration-1][di], f1Tol)
			if f1 < 0 || f1 > 1 {
				t.Errorf("iteration %d dataset %d: F1 %v", it.Iteration, di, f1)
			}
			if it.Time[di] < prev {
				t.Errorf("iteration %d dataset %d: cumulative time decreased", it.Iteration, di)
			}
			prev = it.Time[di]
		}
	}
}

func TestRunFigure4(t *testing.T) {
	res, err := RunFigure4(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 3 {
		t.Fatalf("series = %d, want 3", len(res.Series))
	}
	pinned := map[DatasetName]struct {
		terms       int
		front, back float64
	}{
		Restaurant: {90, 1, 0.4444444444444444},
		Product:    {378, 1, 0.8434148434148434},
		Paper:      {369, 0.8611111111111112, 0.4204774393649626},
	}
	for _, s := range res.Series {
		front, back := s.FrontBackMeans()
		want := pinned[s.Dataset]
		if len(s.Scores) != want.terms {
			t.Errorf("%s: %d ranked terms, want %d", s.Dataset, len(s.Scores), want.terms)
		}
		near(t, string(s.Dataset)+" top-decile mean", front, want.front, f1Tol)
		near(t, string(s.Dataset)+" bottom-decile mean", back, want.back, f1Tol)
		if front <= back {
			t.Errorf("%s: top decile %f must exceed bottom decile %f", s.Dataset, front, back)
		}
		csv := s.CSV()
		if !strings.HasPrefix(csv, "rank,score\n") {
			t.Errorf("%s: bad csv header", s.Dataset)
		}
		if strings.Count(csv, "\n") != len(s.Scores)+1 {
			t.Errorf("%s: csv row count mismatch", s.Dataset)
		}
	}
}

func TestRunFigure5(t *testing.T) {
	res, err := RunFigure5(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	pinned := map[DatasetName][]float64{
		Restaurant: {26.49423506226082, 6.114752335839027, 1.170109081778313, 0.21748512143157284, 0.042689803020354744, 0.00880124477722355, 0.0018944365514136363, 0.0004222098273757302, 9.667206874963696e-05, 2.2594522647190196e-05, 5.363888105014425e-06, 1.2886414872959051e-06, 3.124644153418288e-07, 25.389027638473188, 6.97646135521954, 1.6471269840850975, 0.35923166242544025, 0.07816889224976964, 0.01732332189259811, 0.003915080428392836},
		Product:    {110.53964043246273, 31.367359829789233, 6.396244559020028, 1.181710803107595, 0.21460049164993267, 0.038911029866799285, 0.007066018117578565, 0.0012859650970348246, 0.00023459865461805673, 4.29055181426774e-05, 7.867476633838244e-06, 1.4465656955620076e-06, 2.667298486525027e-07, 106.91957317330784, 32.57117127793278, 7.1236538028965715, 1.410058800351355, 0.2743031105555064, 0.053359906778075616, 0.010410515406964638},
		Paper:      {118.64589878298173, 24.23866075524485, 4.243432610503163, 0.7720583231205236, 0.17246811316480593, 0.052580142798909435, 0.020918682918384945, 0.00958363574575738, 0.004644281260054672, 0.0022959496949018776, 0.0011429378660863243, 0.0005703900915111637, 0.000284934962895278, 0.00014239801110738082, 7.117908683318408e-05, 3.5583597947752565e-05, 1.7789990656602583e-05, 8.894441810181064e-06, 4.4470514840577735e-06, 2.2234740366666728e-06},
	}
	for _, s := range res.Series {
		if len(s.Updates) == 0 {
			t.Fatalf("%s: empty trace", s.Dataset)
		}
		want := pinned[s.Dataset]
		if len(s.Updates) != len(want) {
			t.Errorf("%s: %d updates, want %d", s.Dataset, len(s.Updates), len(want))
		}
		for i := 0; i < len(want) && i < len(s.Updates); i++ {
			near(t, fmt.Sprintf("%s update %d", s.Dataset, i+1), s.Updates[i], want[i], 1e-9)
		}
		peak, last := 0.0, s.Updates[len(s.Updates)-1]
		for _, v := range s.Updates {
			if v > peak {
				peak = v
			}
		}
		// Figure 5 shape: sharp peak, decayed tail.
		if last >= peak {
			t.Errorf("%s: no convergence decay (peak %f, last %f)", s.Dataset, peak, last)
		}
	}
	if !strings.Contains(res.Render(), "Figure 5") {
		t.Error("render output missing title")
	}
}

func TestRunAblations(t *testing.T) {
	res, err := RunAblations(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 6 {
		t.Fatalf("ablations = %d, want 6", len(res))
	}
	byName := map[string]AblationResult{}
	for _, r := range res {
		byName[r.Name] = r
	}
	for name, want := range map[string][3]float64{
		"alpha=1 (linear transition, Eq. 11 off)":    {0.8421052631578948, 0.6880000000000001, 0.02222222222222222},
		"no target bonus (Eq. 12 off)":               {0.888888888888889, 0.8805460750853242, 0.13215859030837004},
		"no early-stop mask (⊙ M_n off)":             {0.8421052631578948, 0.8031496062992126, 0.820263705759889},
		"no P_t denominator (Eq. 6 degraded)":        {0.8421052631578948, 0.8926174496644297, 0.8447653429602887},
		"single fusion round (no reinforcement)":     {0.8421052631578948, 0.9285714285714286, 0.846820809248555},
		"L2 weight normalization (§V-C alternative)": {0.8421052631578948, 0.8940397350993378, 0.7082152974504249},
	} {
		r, ok := byName[name]
		if !ok {
			t.Errorf("missing ablation %q", name)
			continue
		}
		for di, ds := range AllDatasets {
			near(t, name+" / "+string(ds)+" full F1", r.Full[di], pinnedFusionF1[di], f1Tol)
			near(t, name+" / "+string(ds)+" ablated F1", r.Ablated[di], want[di], f1Tol)
		}
	}
	// The linear-walk ablation must hurt at least one dataset noticeably.
	lin := byName["alpha=1 (linear transition, Eq. 11 off)"]
	hurt := false
	for di := range AllDatasets {
		if lin.Ablated[di] < lin.Full[di]-0.05 {
			hurt = true
		}
	}
	if !hurt {
		t.Errorf("linear-walk ablation had no effect: %+v", lin)
	}
	out := RenderAblations(res)
	if !strings.Contains(out, "Ablations") {
		t.Error("render output missing title")
	}
}

func TestRenderTableAlignment(t *testing.T) {
	out := renderTable([]string{"A", "LongHeader"}, [][]string{{"xxxxx", "y"}})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d, want 3", len(lines))
	}
	if len(lines[0]) != len(lines[1]) {
		t.Error("separator not aligned with header")
	}
}

func TestRunExtended(t *testing.T) {
	rows, err := RunExtended(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("extended rows = %d, want 3", len(rows))
	}
	pinned := map[string][3]float64{
		"SoftTFIDF":     {1, 0.8780487804878049, 0.7788533134772896},
		"MongeElkan":    {0.967741935483871, 0.8477611940298507, 0.7861965491372843},
		"BiRank+TW-IDF": {0.9032258064516129, 0.80306905370844, 0.7994121969140338},
	}
	for _, r := range rows {
		for di, f1 := range r.F1 {
			if f1 <= 0 || f1 > 1 {
				t.Errorf("%s dataset %d: F1 %g out of range", r.Method, di, f1)
			}
			near(t, r.Method+"/"+string(AllDatasets[di])+" F1", f1, pinned[r.Method][di], f1Tol)
		}
	}
	if !strings.Contains(RenderExtended(rows), "SoftTFIDF") {
		t.Error("render missing method name")
	}
}

func TestRunScaling(t *testing.T) {
	points, err := RunScaling(Config{Seed: 1, Scale: 1}, []int{10, 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d, want 2", len(points))
	}
	if points[1].Nodes <= points[0].Nodes || points[1].Edges <= points[0].Edges {
		t.Errorf("graph must grow with scale: %+v", points)
	}
	if points[0].SumDegSq <= 0 || points[0].CliqueRank <= 0 {
		t.Errorf("missing measurements: %+v", points[0])
	}
	pinned := [2][3]int64{{187, 392, 7842}, {373, 1483, 67602}}
	for i, p := range points {
		if got := [3]int64{int64(p.Nodes), int64(p.Edges), p.SumDegSq}; got != pinned[i] {
			t.Errorf("scale %d%%: nodes, edges, Σdeg² = %v, want %v", p.Scale, got, pinned[i])
		}
	}
	if !strings.Contains(RenderScaling(points), "Scaling") {
		t.Error("render missing title")
	}
}

func TestRunBlockingStudy(t *testing.T) {
	points, err := RunBlockingStudy(Config{Seed: 1, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 9 {
		t.Fatalf("points = %d, want 3 datasets x 3 rules", len(points))
	}
	// Candidates, blocking recall, fusion F1, Jaccard F1 per point, in
	// dataset-major rule order.
	pinned := [9]struct {
		candidates              int
		recall, fusion, jaccard float64
	}{
		{494, 1, 0.39285714285714285, 0.9565217391304348},
		{44, 1, 0.5499999999999999, 0.9565217391304348},
		{16, 1, 0.8148148148148148, 0.9565217391304348},
		{3322, 1, 0.9365853658536586, 0.8305084745762712},
		{615, 1, 0.9313725490196079, 0.8305084745762712},
		{157, 0.963302752293578, 0.9207920792079208, 0.8305084745762712},
		{3535, 0.9963503649635036, 0.6527570789865872, 0.8781362007168457},
		{1297, 0.9927007299270073, 0.663594470046083, 0.8781362007168457},
		{392, 0.9781021897810219, 0.7854545454545455, 0.8781362007168457},
	}
	for i, p := range points {
		want := pinned[i]
		label := string(p.Dataset) + " " + p.Rule
		if p.Candidates != want.candidates {
			t.Errorf("%s: candidates = %d, want %d", label, p.Candidates, want.candidates)
		}
		near(t, label+" recall", p.Recall, want.recall, f1Tol)
		near(t, label+" fusion F1", p.FusionF1, want.fusion, f1Tol)
		near(t, label+" Jaccard F1", p.JaccardF1, want.jaccard, f1Tol)
	}
	// Within a dataset, tightening the rule must not grow the candidate
	// set and must not raise blocking recall.
	for d := 0; d < 3; d++ {
		base := points[d*3]
		for r := 1; r < 3; r++ {
			p := points[d*3+r]
			if p.Candidates > base.Candidates {
				t.Errorf("%s: rule %q grew candidates %d -> %d", p.Dataset, p.Rule, base.Candidates, p.Candidates)
			}
			if p.Recall > base.Recall+1e-9 {
				t.Errorf("%s: rule %q raised blocking recall", p.Dataset, p.Rule)
			}
		}
	}
	if !strings.Contains(RenderBlockingStudy(points), "Blocking study") {
		t.Error("render missing title")
	}
}
