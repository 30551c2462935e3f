package repro

import (
	"math/rand"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/monitor"
	"repro/internal/pdf"
	"repro/internal/uncertain"
)

// Geometry re-exports.
type (
	// Point is a location in the plane.
	Point = geom.Point
	// Rect is a closed axis-parallel rectangle.
	Rect = geom.Rect
)

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return geom.Pt(x, y) }

// RectCentered builds the rectangle centered at c with the given half
// extents — the paper's R(x, y).
func RectCentered(c Point, halfW, halfH float64) Rect {
	return geom.RectCentered(c, halfW, halfH)
}

// RectFromCorners builds the minimal rectangle containing both points.
func RectFromCorners(a, b Point) Rect { return geom.RectFromCorners(a, b) }

// ExpandedQuery returns the Minkowski sum U0 ⊕ R (Lemma 1's filter
// region).
func ExpandedQuery(u0 Rect, halfW, halfH float64) Rect {
	return geom.ExpandedQuery(u0, halfW, halfH)
}

// Probability model re-exports.
type (
	// PDF is a two-dimensional location density over a rectangular
	// uncertainty region.
	PDF = pdf.PDF
	// ID identifies an object.
	ID = uncertain.ID
	// PointObject is an object with an exactly known location.
	PointObject = uncertain.PointObject
	// Object is an uncertain object: a pdf plus optional U-catalog.
	Object = uncertain.Object
)

// NewUniformPDF returns the uniform pdf over region (the paper's
// default uncertainty pdf).
func NewUniformPDF(region Rect) (PDF, error) { return pdf.NewUniform(region) }

// NewGaussianPDF returns the truncated-Gaussian pdf over region with
// mean at the center; sigma values <= 0 select the paper's convention
// (one-sixth of the region extent per axis).
func NewGaussianPDF(region Rect, sigmaX, sigmaY float64) (PDF, error) {
	return pdf.NewTruncGaussian(region, sigmaX, sigmaY)
}

// NewGridPDF returns a piecewise-constant pdf over an nx × ny lattice
// with the given row-major relative weights (for arbitrary empirical
// distributions).
func NewGridPDF(region Rect, nx, ny int, weights []float64) (PDF, error) {
	return pdf.NewGrid(region, nx, ny, weights)
}

// NewConvexPDF returns the uniform pdf over a convex counterclockwise
// polygon — non-rectangular uncertainty regions, the paper's §7
// future-work extension. Rectangle masses are exact (polygon
// clipping); uncertain-object refinement uses Monte-Carlo.
func NewConvexPDF(vertices []Point) (PDF, error) {
	return pdf.NewConvexUniform(vertices)
}

// NewDiscPDF returns a regular-polygon approximation (sides vertices,
// minimum 8) of the uniform pdf over a disc — the "within distance d
// of the last fix" uncertainty model.
func NewDiscPDF(center Point, radius float64, sides int) (PDF, error) {
	return pdf.NewDisc(center, radius, sides)
}

// PaperCatalogProbs returns the ten U-catalog probability values used
// in the paper's experiments (0, 0.1, ..., 0.9).
func PaperCatalogProbs() []float64 { return uncertain.PaperCatalogProbs() }

// NewUncertainObject wraps a pdf as an uncertain object with a
// U-catalog at the given probability values (nil = the paper's ten).
func NewUncertainObject(id ID, p PDF, catalogProbs []float64) (*Object, error) {
	if catalogProbs == nil {
		catalogProbs = uncertain.PaperCatalogProbs()
	}
	return uncertain.NewObject(id, p, catalogProbs)
}

// NewIssuer builds a query issuer from its location pdf, with the
// paper's default U-catalog (needed for Qp-expanded-query pruning).
func NewIssuer(p PDF) (*Object, error) {
	return uncertain.NewObject(-1, p, uncertain.PaperCatalogProbs())
}

// Engine re-exports. The engine's query surface is the Request
// model: one value type (Request) describing any evaluation — range
// over uncertain objects or points, nearest neighbor — and one entry
// point, Engine.Evaluate(ctx, req) (or Snapshot.Evaluate to hold a
// version), with Engine.EvaluateAll as the one fan-out form. The
// legacy Evaluate* methods were removed after one deprecation cycle;
// see the README's migration table.
type (
	// Engine evaluates imprecise location-dependent queries over
	// indexed point and uncertain-object databases.
	Engine = core.Engine
	// EngineOptions configures engine construction.
	EngineOptions = core.EngineOptions
	// Request is the one value describing any evaluation: kind,
	// issuer, constraint, tuning options, fan-out, and seed.
	Request = core.Request
	// Response is an evaluation outcome: the Result plus the kind and
	// the engine version observed.
	Response = core.Response
	// RequestError is the typed validation error for malformed
	// Requests (Field names the offending field; Unwrap exposes the
	// sentinel).
	RequestError = core.RequestError
	// RequestKind selects what a Request evaluates (uncertain /
	// points / nn).
	RequestKind = core.Kind
	// AllOptions tunes one EvaluateAll fan-out (workers, seed).
	AllOptions = core.AllOptions
	// AllHandler receives one finished request of an EvaluateAll
	// fan-out.
	AllHandler = core.AllHandler
	// EvalOptions tunes one evaluation (method, sampling, pruning
	// toggles).
	EvalOptions = core.EvalOptions
	// ObjectEvalConfig tunes uncertain-object refinement.
	ObjectEvalConfig = core.ObjectEvalConfig
	// StrategySet toggles the §5.2 pruning strategies.
	StrategySet = core.StrategySet
	// Result is a query outcome: matches plus cost accounting.
	Result = core.Result
	// Match pairs an object id with its qualification probability.
	Match = core.Match
	// Cost reports candidates, pruning, refinement, and I/O.
	Cost = core.Cost
	// Method selects the enhanced or basic evaluator.
	Method = core.Method
)

// Evaluation methods.
const (
	// MethodEnhanced is the paper's proposal (expansion + duality +
	// threshold pruning).
	MethodEnhanced = core.MethodEnhanced
	// MethodBasic is the §3.3 baseline (direct numeric integration).
	MethodBasic = core.MethodBasic
)

// Request kinds.
const (
	// KindUncertain evaluates IUQ / C-IUQ over the uncertain-object
	// database (the zero value).
	KindUncertain = core.KindUncertain
	// KindPoints evaluates IPQ / C-IPQ over the point-object database.
	KindPoints = core.KindPoints
	// KindNN evaluates imprecise nearest-neighbor queries over the
	// point-object database.
	KindNN = core.KindNN
)

// RequestUncertain builds an IUQ / C-IUQ range request (threshold 0 =
// unconstrained).
func RequestUncertain(issuer *Object, w, h, threshold float64) Request {
	return core.RequestUncertain(issuer, w, h, threshold)
}

// RequestPoints builds an IPQ / C-IPQ range request.
func RequestPoints(issuer *Object, w, h, threshold float64) Request {
	return core.RequestPoints(issuer, w, h, threshold)
}

// RequestNN builds an imprecise nearest-neighbor request: the K most
// probable nearest neighbors of the issuer among the point objects.
func RequestNN(issuer *Object, k int) Request {
	return core.RequestNN(issuer, k)
}

// NewEngine bulk-loads indexes over the given datasets. The engine is
// ephemeral: nothing survives the process. Use Open for a durable
// engine backed by a write-ahead log and checkpoints.
func NewEngine(points []PointObject, objects []*Object, opts EngineOptions) (*Engine, error) {
	return core.NewEngine(points, objects, opts)
}

// Durability re-exports. Open returns a durable engine: every
// committed update batch is written ahead to a log under
// EngineOptions.FsyncPolicy, checkpoints serialize whole versions to
// paged files (automatically every EngineOptions.CheckpointEvery
// batches, on Engine.Checkpoint, and on Engine.Close), and reopening
// the same directory recovers the committed state exactly — same
// Version, bit-identical evaluation results.
type (
	// FsyncPolicy selects when the write-ahead log reaches stable
	// media: FsyncInterval (grouped, the default), FsyncAlways (every
	// batch), or FsyncNever (OS-paced).
	FsyncPolicy = core.FsyncPolicy
	// CheckpointInfo reports one Engine.Checkpoint outcome.
	CheckpointInfo = core.CheckpointInfo
	// DurabilityStats describes a durable engine's WAL and checkpoint
	// state (zero Enabled for NewEngine engines).
	DurabilityStats = core.DurabilityStats
)

// WAL fsync policies for EngineOptions.FsyncPolicy.
const (
	// FsyncInterval groups commits: appends return once the record is
	// in the OS page cache and a background flusher syncs on a timer
	// (EngineOptions.FsyncInterval, default 50ms).
	FsyncInterval = core.FsyncInterval
	// FsyncAlways syncs inside every committed batch.
	FsyncAlways = core.FsyncAlways
	// FsyncNever leaves flushing to the OS (plus one sync on Close).
	FsyncNever = core.FsyncNever
)

// ParseFsyncPolicy parses "always", "interval", or "never".
func ParseFsyncPolicy(s string) (FsyncPolicy, error) { return core.ParseFsyncPolicy(s) }

// ErrEngineClosed is returned by durability operations after
// Engine.Close.
var ErrEngineClosed = core.ErrClosed

// Open opens (or creates) a durable engine rooted at dir, recovering
// any previously committed state from the latest checkpoint plus the
// write-ahead log tail. Close the engine to flush the log and write a
// final checkpoint. Datasets are ingested through Engine.ApplyUpdates
// rather than constructor arguments, so recovery and first boot share
// one code path.
func Open(dir string, opts EngineOptions) (*Engine, error) {
	return core.Open(dir, opts)
}

// PointQualification computes a point object's qualification
// probability by query-data duality (Lemma 3) — exact for every pdf in
// this package.
func PointQualification(issuer PDF, s Point, w, h float64) float64 {
	return core.PointQualification(issuer, s, w, h)
}

// ObjectQualification computes an uncertain object's qualification
// probability (Lemma 4), using closed forms where the pdfs allow and
// otherwise Monte-Carlo sampling drawn from rng (nil draws math/rand's
// stream for seed 1).
func ObjectQualification(issuer, obj PDF, w, h float64, cfg ObjectEvalConfig, rng *rand.Rand) float64 {
	return core.ObjectQualification(issuer, obj, w, h, cfg, rng)
}

// AdaptiveMode selects whether Monte-Carlo refinement of threshold
// queries may stop early once a confidence bound (Hoeffding /
// empirical Bernstein) has decided the candidate against the
// threshold; see ObjectEvalConfig.Adaptive.
type AdaptiveMode = core.AdaptiveMode

// Adaptive refinement modes for ObjectEvalConfig.Adaptive.
const (
	// AdaptiveAuto (default) early-terminates Monte-Carlo refinement
	// whenever the query carries a probability threshold. The
	// qualifying set is unchanged; only the samples spent on clear-cut
	// candidates shrink (observable in Cost.SamplesUsed /
	// Cost.EarlyStopped).
	AdaptiveAuto = core.AdaptiveAuto
	// AdaptiveOff always draws the full MCSamples budget.
	AdaptiveOff = core.AdaptiveOff
)

// Dynamic-update re-exports. Updates run concurrently with queries
// under MVCC snapshot isolation: evaluations pin the immutable state
// current when they start, mutators build the next state
// copy-on-write and publish it atomically — neither ever waits for
// the other. ApplyUpdates ingests a whole batch as one transaction.
type (
	// Update is one element of an Engine.ApplyUpdates batch.
	Update = core.Update
	// UpdateOp selects what an Update does.
	UpdateOp = core.UpdateOp
	// UpdateReport summarizes one ingested batch (applied counts,
	// per-object change records, engine version).
	UpdateReport = core.UpdateReport
	// UpdateError records one failed update of a batch.
	UpdateError = core.UpdateError
	// Snapshot is a pinned immutable view of the engine at one
	// version: all its Evaluate* methods observe that version no
	// matter how many updates commit concurrently. Obtain one with
	// Engine.Snapshot (or atomically with a batch commit via
	// Engine.ApplyUpdatesSnapshot) and Close it when done.
	Snapshot = core.Snapshot
	// SnapshotStats reports the engine's MVCC bookkeeping (snapshot
	// age, pins, version lag, retired-node debt).
	SnapshotStats = core.SnapshotStats
)

// ErrSnapshotClosed is returned by evaluation through a Snapshot
// whose Close has already run.
var ErrSnapshotClosed = core.ErrSnapshotClosed

// Update operations.
const (
	// OpUpsertPoint inserts or moves a point object.
	OpUpsertPoint = core.OpUpsertPoint
	// OpDeletePoint removes a point object.
	OpDeletePoint = core.OpDeletePoint
	// OpUpsertObject inserts or replaces an uncertain object (a
	// position re-report).
	OpUpsertObject = core.OpUpsertObject
	// OpDeleteObject removes an uncertain object.
	OpDeleteObject = core.OpDeleteObject
)

// Continuous-query monitoring re-exports (package internal/monitor).
type (
	// Monitor serves standing queries over an engine under a stream
	// of updates, waking only the queries each batch can have
	// affected (guard-region filtering) and, for range queries,
	// re-qualifying only the objects the batch moved.
	Monitor = monitor.Monitor
	// MonitorConfig tunes a Monitor (re-evaluation workers, eval
	// options, delta-queue bound).
	MonitorConfig = monitor.Config
	// MonitorStats are a monitor's lifetime counters.
	MonitorStats = monitor.Stats
	// Subscription is one registered standing Request: its delta
	// stream (Next), current answer (Snapshot), and lifecycle (Close).
	Subscription = monitor.Subscription
	// SubStats are one subscription's counters.
	SubStats = monitor.SubStats
	// Delta is one increment of a standing query's answer: objects
	// entering/leaving the qualifying set with probabilities.
	Delta = monitor.Delta
	// BatchOutcome reports what one Monitor.ApplyUpdates call did.
	BatchOutcome = monitor.BatchOutcome
)

// NewMonitor builds a continuous-query monitor over the engine.
func NewMonitor(e *Engine, cfg MonitorConfig) *Monitor { return monitor.New(e, cfg) }

// ErrSubscriptionClosed is returned by Subscription.Next once the
// subscription is unregistered and drained.
var ErrSubscriptionClosed = monitor.ErrClosed

// ObjectQualifier is the prepared form of ObjectQualification: built
// once per query, it caches the issuer-side state (expanded support,
// shifted CDF breakpoints) reused across every candidate. It is safe
// for concurrent use.
type ObjectQualifier = core.ObjectQualifier

// NewObjectQualifier prepares qualification of many candidates against
// one issuer and query extent.
func NewObjectQualifier(issuer PDF, w, h float64) *ObjectQualifier {
	return core.NewObjectQualifier(issuer, w, h)
}

// ExpectedCount returns the expected number of truly qualifying
// objects: the sum of qualification probabilities.
func ExpectedCount(ms []Match) float64 { return core.ExpectedCount(ms) }

// QualityScore returns the mean qualification probability of an answer
// set — the service-quality summary from the authors' companion work.
func QualityScore(ms []Match) float64 { return core.QualityScore(ms) }

// AnswerEntropy returns the total Shannon entropy (bits) of the answer
// set's membership uncertainty.
func AnswerEntropy(ms []Match) float64 { return core.AnswerEntropy(ms) }

// Dataset re-exports.
type (
	// PointConfig parameterizes synthetic point generation.
	PointConfig = dataset.PointConfig
	// RectConfig parameterizes synthetic rectangle generation.
	RectConfig = dataset.RectConfig
	// PDFKind selects the pdf attached to generated objects.
	PDFKind = dataset.PDFKind
)

// Dataset pdf kinds.
const (
	// PDFUniform is the paper's default object pdf.
	PDFUniform = dataset.PDFUniform
	// PDFGaussian is the §6.2 non-uniform object pdf.
	PDFGaussian = dataset.PDFGaussian
)

// DataExtent is the side length of the experiment space (10,000).
const DataExtent = dataset.Extent

// CaliforniaConfig returns the stand-in configuration for the paper's
// California point dataset (62K points).
func CaliforniaConfig() PointConfig { return dataset.CaliforniaConfig() }

// LongBeachConfig returns the stand-in configuration for the paper's
// Long Beach rectangle dataset (53K rectangles).
func LongBeachConfig() RectConfig { return dataset.LongBeachConfig() }

// GeneratePoints synthesizes a clustered point set.
func GeneratePoints(cfg PointConfig) []Point { return dataset.GeneratePoints(cfg) }

// GenerateRects synthesizes a clustered rectangle set.
func GenerateRects(cfg RectConfig) []Rect { return dataset.GenerateRects(cfg) }

// BuildPointObjects wraps raw points as point objects (ids = indexes).
func BuildPointObjects(pts []Point) []PointObject { return dataset.BuildPointObjects(pts) }

// BuildUncertainObjects wraps rectangles as uncertain objects with the
// given pdf kind and U-catalog values (nil = the paper's ten).
func BuildUncertainObjects(rects []Rect, kind PDFKind, catalogProbs []float64) ([]*Object, error) {
	if catalogProbs == nil {
		catalogProbs = uncertain.PaperCatalogProbs()
	}
	return dataset.BuildUncertainObjects(rects, kind, catalogProbs)
}

// SavePointsFile writes a point set in the binary .ilq format.
func SavePointsFile(path string, pts []Point) error { return dataset.SavePointsFile(path, pts) }

// LoadPointsFile reads a point set written by SavePointsFile.
func LoadPointsFile(path string) ([]Point, error) { return dataset.LoadPointsFile(path) }

// SaveRectsFile writes a rectangle set in the binary .ilq format.
func SaveRectsFile(path string, rects []Rect) error { return dataset.SaveRectsFile(path, rects) }

// LoadRectsFile reads a rectangle set written by SaveRectsFile.
func LoadRectsFile(path string) ([]Rect, error) { return dataset.LoadRectsFile(path) }
