// Package xmlconfig loads community deployments from XML configuration
// files, mirroring the paper's deployment story (§4.1): "we use XML
// configuration files to provide the task and service definitions for
// each device". A configuration describes every host's knowhow (workflow
// fragments) and capabilities (services), plus optional locations and
// problem specifications.
//
// Schema:
//
//	<community>
//	  <host id="master-chef" x="10" y="4" speed="1.5">
//	    <fragment name="omelets">
//	      <task id="cook omelets" mode="conjunctive">
//	        <input>omelet bar setup</input>
//	        <output>breakfast served</output>
//	      </task>
//	    </fragment>
//	    <service task="cook omelets" duration="5m" specialization="0.9"
//	             user="true" x="12" y="4" located="true"/>
//	  </host>
//	  <problem name="meals">
//	    <trigger>breakfast ingredients</trigger>
//	    <goal>breakfast served</goal>
//	  </problem>
//	</community>
package xmlconfig

import (
	"encoding/xml"
	"fmt"
	"io"
	"os"
	"time"

	"openwf/internal/community"
	"openwf/internal/model"
	"openwf/internal/proto"
	"openwf/internal/service"
	"openwf/internal/space"
	"openwf/internal/spec"
)

// xmlCommunity is the top-level document.
type xmlCommunity struct {
	XMLName  xml.Name     `xml:"community"`
	Hosts    []xmlHost    `xml:"host"`
	Problems []xmlProblem `xml:"problem"`
}

type xmlHost struct {
	ID        string        `xml:"id,attr"`
	X         float64       `xml:"x,attr"`
	Y         float64       `xml:"y,attr"`
	Speed     float64       `xml:"speed,attr"`
	Fragments []xmlFragment `xml:"fragment"`
	Services  []xmlService  `xml:"service"`
}

type xmlFragment struct {
	Name  string    `xml:"name,attr"`
	Tasks []xmlTask `xml:"task"`
}

type xmlTask struct {
	ID      string   `xml:"id,attr"`
	Mode    string   `xml:"mode,attr"`
	Inputs  []string `xml:"input"`
	Outputs []string `xml:"output"`
}

type xmlService struct {
	Task           string  `xml:"task,attr"`
	Duration       string  `xml:"duration,attr"`
	Specialization float64 `xml:"specialization,attr"`
	User           bool    `xml:"user,attr"`
	Located        bool    `xml:"located,attr"`
	X              float64 `xml:"x,attr"`
	Y              float64 `xml:"y,attr"`
}

type xmlProblem struct {
	Name     string   `xml:"name,attr"`
	Triggers []string `xml:"trigger"`
	Goals    []string `xml:"goal"`
}

// Deployment is a parsed configuration.
type Deployment struct {
	// Hosts are ready to pass to community.New.
	Hosts []community.HostSpec
	// Problems are the named problem specifications, in file order.
	Problems []Problem
}

// Problem is a named problem specification from the configuration.
type Problem struct {
	Name string
	Spec spec.Spec
}

// Spec resolves the problem a request poses: the named <problem> when
// problem is set, else the specification of triggers and goals, else the
// deployment's only problem when it has exactly one.
func (d *Deployment) Spec(problem string, triggers, goals []string) (spec.Spec, error) {
	if problem != "" {
		for _, p := range d.Problems {
			if p.Name == problem {
				return p.Spec, nil
			}
		}
		return spec.Spec{}, fmt.Errorf("no problem %q in configuration", problem)
	}
	if len(triggers) > 0 && len(goals) > 0 {
		return spec.New(toLabels(triggers), toLabels(goals))
	}
	if len(d.Problems) == 1 {
		return d.Problems[0].Spec, nil
	}
	return spec.Spec{}, fmt.Errorf("name a problem, or give both triggers and goals")
}

// LoadFile parses a deployment from an XML file.
func LoadFile(path string) (*Deployment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("xmlconfig: %w", err)
	}
	defer f.Close()
	d, err := load(f)
	if err != nil {
		return nil, fmt.Errorf("xmlconfig: %s: %w", path, err)
	}
	return d, nil
}

// load parses a deployment from a reader.
func load(r io.Reader) (*Deployment, error) {
	var doc xmlCommunity
	if err := xml.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("parsing: %w", err)
	}
	if len(doc.Hosts) == 0 {
		return nil, fmt.Errorf("no hosts defined")
	}
	dep := &Deployment{}
	seen := make(map[string]struct{}, len(doc.Hosts))
	for _, xh := range doc.Hosts {
		if xh.ID == "" {
			return nil, fmt.Errorf("host with empty id")
		}
		if _, dup := seen[xh.ID]; dup {
			return nil, fmt.Errorf("duplicate host %q", xh.ID)
		}
		seen[xh.ID] = struct{}{}
		hs, err := convertHost(xh)
		if err != nil {
			return nil, fmt.Errorf("host %q: %w", xh.ID, err)
		}
		dep.Hosts = append(dep.Hosts, hs)
	}
	for _, xp := range doc.Problems {
		s, err := spec.New(toLabels(xp.Triggers), toLabels(xp.Goals))
		if err != nil {
			return nil, fmt.Errorf("problem %q: %w", xp.Name, err)
		}
		dep.Problems = append(dep.Problems, Problem{Name: xp.Name, Spec: s})
	}
	return dep, nil
}

func convertHost(xh xmlHost) (community.HostSpec, error) {
	hs := community.HostSpec{
		ID:       proto.Addr(xh.ID),
		Location: space.Point{X: xh.X, Y: xh.Y},
		Speed:    xh.Speed,
	}
	for _, xf := range xh.Fragments {
		tasks := make([]model.Task, 0, len(xf.Tasks))
		for _, xt := range xf.Tasks {
			mode, err := parseMode(xt.Mode)
			if err != nil {
				return hs, fmt.Errorf("fragment %q task %q: %w", xf.Name, xt.ID, err)
			}
			tasks = append(tasks, model.Task{
				ID:      model.TaskID(xt.ID),
				Mode:    mode,
				Inputs:  toLabels(xt.Inputs),
				Outputs: toLabels(xt.Outputs),
			})
		}
		f, err := model.NewFragment(xf.Name, tasks...)
		if err != nil {
			return hs, err
		}
		hs.Fragments = append(hs.Fragments, f)
	}
	for _, xs := range xh.Services {
		desc := service.Descriptor{
			Task:           model.TaskID(xs.Task),
			Specialization: xs.Specialization,
			UserAction:     xs.User,
		}
		if xs.Duration != "" {
			d, err := time.ParseDuration(xs.Duration)
			if err != nil {
				return hs, fmt.Errorf("service %q: bad duration %q: %w", xs.Task, xs.Duration, err)
			}
			desc.Duration = d
		}
		if xs.Located {
			desc.Location = &space.Point{X: xs.X, Y: xs.Y}
		}
		hs.Services = append(hs.Services, service.Registration{Descriptor: desc})
	}
	return hs, nil
}

func parseMode(s string) (model.Mode, error) {
	switch s {
	case "", "conjunctive":
		return model.Conjunctive, nil
	case "disjunctive":
		return model.Disjunctive, nil
	default:
		return 0, fmt.Errorf("unknown mode %q", s)
	}
}

func toLabels(ss []string) []model.LabelID {
	out := make([]model.LabelID, len(ss))
	for i, s := range ss {
		out[i] = model.LabelID(s)
	}
	return out
}
