package experiments

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"quasar/internal/trace"
)

// Artifact is one table, figure or study of the paper's evaluation.
type Artifact struct {
	Name string
	// Print runs the artifact at its paper-scale configuration and renders
	// its section to w. It prints nothing and returns an error when the run
	// fails or its result misses a part the section reports.
	Print func(w io.Writer) error
}

// Artifacts returns the paper's evaluation in print order: Figs. 1–11,
// Tables 1–3, the straggler (§4.3), phase (§4.1) and overhead (§6.5)
// studies, the ablations, the fault-storm availability run and the SLO
// alert scoring. Names that are views of one run share it within one
// returned catalogue (fig5 and table3, fig6 and fig7, fig9 and fig10): the
// first of a pair to print runs it. Each call starts from nothing.
func Artifacts() []Artifact {
	fig5 := sync.OnceValues(func() (*Fig5Result, error) { return Fig5(DefaultFig5Config()) })
	fig6 := sync.OnceValues(func() (*Fig6Result, error) { return Fig6(DefaultFig6Config()) })
	fig9 := sync.OnceValues(func() (*Fig9Result, error) { return Fig9(DefaultFig9Config()) })
	return []Artifact{
		{"fig1", func(w io.Writer) error {
			Fig1(trace.DefaultConfig()).Print(w)
			return nil
		}},
		{"fig2", func(w io.Writer) error {
			r := Fig2(3)
			if err := parts(len(r.HadoopHeterogeneity), 10, "platforms"); err != nil {
				return err
			}
			r.Print(w)
			return nil
		}},
		{"table1", func(w io.Writer) error {
			Table1().Print(w)
			return nil
		}},
		{"table2", func(w io.Writer) error {
			Table2(DefaultTable2Config()).Print(w)
			return nil
		}},
		{"fig3", func(w io.Writer) error {
			r := Fig3(DefaultFig3Config())
			if len(r.Points) == 0 {
				return errors.New("no density points")
			}
			r.Print(w)
			return nil
		}},
		{"fig5", func(w io.Writer) error {
			r, err := fig5()
			if err != nil {
				return err
			}
			if err := parts(len(r.Jobs), DefaultFig5Config().Jobs, "jobs"); err != nil {
				return err
			}
			r.Print(w)
			return nil
		}},
		{"table3", func(w io.Writer) error {
			r, err := fig5()
			if err != nil {
				return err
			}
			if len(r.Jobs) < 8 || r.Jobs[7].QuasarConfig == nil {
				return errors.New("no tuned configuration for job H8")
			}
			r.Table3(w)
			return nil
		}},
		{"fig6", func(w io.Writer) error {
			r, err := fig6()
			if err != nil {
				return err
			}
			r.Print(w)
			return nil
		}},
		{"fig7", func(w io.Writer) error {
			r, err := fig6()
			if err != nil {
				return err
			}
			if r.QuasarHeat == nil || len(r.QuasarHeat.Times) == 0 {
				return errors.New("no utilization heatmap")
			}
			r.Fig7(w)
			return nil
		}},
		{"fig8", func(w io.Writer) error {
			r, err := Fig8(DefaultFig8Config())
			if err != nil {
				return err
			}
			if err := parts(len(r.Series), 6, "series"); err != nil {
				return err
			}
			r.Print(w)
			return nil
		}},
		{"fig9", func(w io.Writer) error {
			r, err := fig9()
			if err != nil {
				return err
			}
			if err := parts(len(r.Services), 4, "service runs"); err != nil {
				return err
			}
			r.Print(w)
			return nil
		}},
		{"fig10", func(w io.Writer) error {
			r, err := fig9()
			if err != nil {
				return err
			}
			r.Fig10(w)
			return nil
		}},
		{"fig11", func(w io.Writer) error {
			r, err := Fig11(DefaultFig11Config())
			if err != nil {
				return err
			}
			if err := parts(len(r.Runs), 3, "manager runs"); err != nil {
				return err
			}
			r.Print(w)
			return nil
		}},
		{"stragglers", func(w io.Writer) error {
			r := Stragglers(7, 1)
			if r.Results["quasar"].DetectedFrac <= 0 {
				return errors.New("quasar detected no straggler")
			}
			r.Print(w)
			return nil
		}},
		{"phases", func(w io.Writer) error {
			r, err := Phases(25, 2)
			if err != nil {
				return err
			}
			if err := parts(r.Injected, 25, "injected phase changes"); err != nil {
				return err
			}
			r.Print(w)
			return nil
		}},
		{"overheads", func(w io.Writer) error {
			r, err := Overheads(12, 3)
			if err != nil {
				return err
			}
			r.Print(w)
			return nil
		}},
		{"ablations", func(w io.Writer) error {
			r, err := Ablations(5)
			if err != nil {
				return err
			}
			if err := parts(len(r.Rows), 6, "variants"); err != nil {
				return err
			}
			r.Print(w)
			return nil
		}},
		{"availability", func(w io.Writer) error {
			r, err := Availability(DefaultAvailabilityConfig())
			if err != nil {
				return err
			}
			r.Print(w)
			return nil
		}},
		{"slodetect", func(w io.Writer) error {
			r, err := SLODetect(DefaultSLODetectConfig())
			if err != nil {
				return err
			}
			r.Print(w)
			return nil
		}},
	}
}

// parts is nil when a result holds want parts of a kind, else an error
// that says how many it holds.
func parts(got, want int, what string) error {
	if got != want {
		return fmt.Errorf("%d %s, want %d", got, what, want)
	}
	return nil
}
