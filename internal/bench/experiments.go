package bench

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"repro/internal/dataset"
)

// Session is one run of the harness: the sizing every experiment
// shares, the two per-figure sample counts, and the environments, built
// on first use and shared by the experiments with the same pdf kind.
type Session struct {
	Config
	BasicSamples int  // issuer samples of fig8's basic method (0 = 400)
	MCSamples    int  // Monte-Carlo samples per refinement in fig13 (0 = 200)
	ShowIO       bool // render the node-access and candidate columns

	envs map[dataset.PDFKind]*Env
}

// on runs fig over the session's environment of the given pdf kind.
func (s *Session) on(kind dataset.PDFKind, fig func(*Env) (Figure, error)) (Figure, error) {
	if s.envs[kind] == nil {
		cfg := s.Config
		cfg.Kind = kind
		env, err := NewEnv(cfg)
		if err != nil {
			return Figure{}, fmt.Errorf("building environment: %w", err)
		}
		if s.envs == nil {
			s.envs = map[dataset.PDFKind]*Env{}
		}
		s.envs[kind] = env
	}
	return fig(s.envs[kind])
}

// Experiment is one row of the experiment table: an id and the function
// that runs it and renders its tables to w.
type Experiment struct {
	ID  string
	Run func(s *Session, w io.Writer) error
}

// Experiments is everything the harness can run, in presentation
// order. An id is written here and nowhere else: Select validates
// against this table and ildq-bench runs what Select returns.
var Experiments = []Experiment{
	{"fig8", figure(func(s *Session) (Figure, error) {
		return s.on(dataset.PDFUniform, func(e *Env) (Figure, error) { return Fig8(e, s.BasicSamples) })
	})},
	{"fig9", figure(func(s *Session) (Figure, error) { return s.on(dataset.PDFUniform, Fig9) })},
	{"fig10", figure(func(s *Session) (Figure, error) { return s.on(dataset.PDFUniform, Fig10) })},
	{"fig11", figure(func(s *Session) (Figure, error) { return s.on(dataset.PDFUniform, Fig11) })},
	{"fig12", figure(func(s *Session) (Figure, error) { return s.on(dataset.PDFUniform, Fig12) })},
	{"fig13", figure(func(s *Session) (Figure, error) {
		return s.on(dataset.PDFGaussian, func(e *Env) (Figure, error) { return Fig13(e, s.MCSamples) })
	})},
	{"ablation-strategies", figure(func(s *Session) (Figure, error) { return s.on(dataset.PDFUniform, AblationStrategies) })},
	{"ablation-catalog", figure(func(s *Session) (Figure, error) { return AblationCatalogSize(s.Config) })},
	{"exp-io", figure(func(s *Session) (Figure, error) { return IOExperiment(s.Config, nil) })},
	{"exp-sensitivity", func(s *Session, w io.Writer) error {
		for _, run := range []func(Config, []int, int) (SensitivityResult, error){SensitivityIPQ, SensitivityIUQ} {
			res, err := run(s.Config, nil, 0)
			if err != nil {
				return err
			}
			res.Render(w)
		}
		return nil
	}},
}

// figure adapts an experiment that yields one Figure to a table row.
func figure(run func(*Session) (Figure, error)) func(*Session, io.Writer) error {
	return func(s *Session, w io.Writer) error {
		fig, err := run(s)
		if err != nil {
			return err
		}
		fig.Render(w, s.ShowIO)
		return nil
	}
}

// IDs lists the experiment ids in table order.
func IDs() []string {
	ids := make([]string, len(Experiments))
	for i, e := range Experiments {
		ids[i] = e.ID
	}
	return ids
}

// Select resolves a comma-separated id list, or "all", to the rows of
// Experiments it names, in table order. An unknown id is an error that
// lists the known ones.
func Select(spec string) ([]Experiment, error) {
	if spec == "all" {
		return Experiments, nil
	}
	ids := IDs()
	want := map[string]bool{}
	for _, id := range strings.Split(spec, ",") {
		id = strings.TrimSpace(id)
		if !slices.Contains(ids, id) {
			return nil, fmt.Errorf("unknown experiment %q (known: %s)", id, strings.Join(ids, ", "))
		}
		want[id] = true
	}
	var out []Experiment
	for _, e := range Experiments {
		if want[e.ID] {
			out = append(out, e)
		}
	}
	return out, nil
}
