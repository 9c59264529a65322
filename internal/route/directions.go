package route

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/graph"
)

// Instruction is one turn-by-turn step of a route — the paper's route
// display facility ("effectively communicate the optimal route to the
// traveller") rendered as guidance rather than a map.
type Instruction struct {
	// Action is "depart", "continue", "bear/turn/sharp left|right",
	// "u-turn", or "arrive".
	Action string
	// Heading is the 8-way compass direction of travel after the action
	// (empty for "arrive").
	Heading string
	// Distance is the geometric length travelled until the next
	// instruction.
	Distance float64
	// Segments is the number of road segments covered by this instruction.
	Segments int
	// At is the node where the action happens.
	At graph.NodeID
}

// String renders the instruction as one guidance line.
func (in Instruction) String() string {
	switch in.Action {
	case "arrive":
		return fmt.Sprintf("arrive at node %d", in.At)
	case "depart":
		return fmt.Sprintf("depart heading %s for %.2f units (%d segments)", in.Heading, in.Distance, in.Segments)
	default:
		return fmt.Sprintf("%s onto heading %s for %.2f units (%d segments)", in.Action, in.Heading, in.Distance, in.Segments)
	}
}

// FormatDirections renders instructions as a numbered list.
func FormatDirections(ins []Instruction) string {
	var sb strings.Builder
	for i, in := range ins {
		fmt.Fprintf(&sb, "%2d. %s\n", i+1, in.String())
	}
	return sb.String()
}

// bearingDeg returns the travel bearing of hop u→v in degrees, with 0 =
// east, 90 = north (mathematical convention).
func bearingDeg(g *graph.Graph, u, v graph.NodeID) float64 {
	p, q := g.Point(u), g.Point(v)
	return math.Atan2(q.Y-p.Y, q.X-p.X) * 180 / math.Pi
}

// compass8 maps a bearing to an 8-way compass name.
func compass8(deg float64) string {
	names := []string{"east", "northeast", "north", "northwest", "west", "southwest", "south", "southeast"}
	idx := int(math.Round(normDeg(deg)/45)) % 8
	return names[idx]
}

// normDeg normalises an angle to [0, 360).
func normDeg(d float64) float64 {
	d = math.Mod(d, 360)
	if d < 0 {
		d += 360
	}
	return d
}

// turnDelta returns the signed change of bearing in (−180, 180]: positive
// is a left (counterclockwise) turn.
func turnDelta(from, to float64) float64 {
	d := math.Mod(to-from, 360)
	if d > 180 {
		d -= 360
	}
	if d <= -180 {
		d += 360
	}
	return d
}

// classifyTurn names the manoeuvre for a bearing change.
func classifyTurn(delta float64) string {
	abs := math.Abs(delta)
	side := "left"
	if delta < 0 {
		side = "right"
	}
	switch {
	case abs < 25:
		return "continue"
	case abs < 60:
		return "bear " + side
	case abs < 135:
		return "turn " + side
	case abs < 170:
		return "sharp " + side
	default:
		return "u-turn"
	}
}

// Directions converts a path of the snapshot's network into turn-by-turn
// guidance. Consecutive hops whose bearing changes by less than the
// continue threshold merge into one instruction. A path with fewer than
// two nodes yields only an arrival.
func (sn *Snapshot) Directions(p graph.Path) ([]Instruction, error) {
	g := sn.graph
	if !p.ValidIn(g) {
		return nil, fmt.Errorf("route: not a path of the network: %s", p)
	}
	if len(p.Nodes) == 0 {
		return nil, fmt.Errorf("route: empty path")
	}
	if len(p.Nodes) == 1 {
		return []Instruction{{Action: "arrive", At: p.Nodes[0]}}, nil
	}

	hopLen := func(i int) float64 {
		return g.Point(p.Nodes[i]).EuclideanDistance(g.Point(p.Nodes[i+1]))
	}

	var out []Instruction
	cur := Instruction{
		Action:   "depart",
		Heading:  compass8(bearingDeg(g, p.Nodes[0], p.Nodes[1])),
		Distance: hopLen(0),
		Segments: 1,
		At:       p.Nodes[0],
	}
	prevBearing := bearingDeg(g, p.Nodes[0], p.Nodes[1])
	for i := 1; i+1 < len(p.Nodes); i++ {
		b := bearingDeg(g, p.Nodes[i], p.Nodes[i+1])
		action := classifyTurn(turnDelta(prevBearing, b))
		if action == "continue" {
			cur.Distance += hopLen(i)
			cur.Segments++
		} else {
			out = append(out, cur)
			cur = Instruction{
				Action:   action,
				Heading:  compass8(b),
				Distance: hopLen(i),
				Segments: 1,
				At:       p.Nodes[i],
			}
		}
		prevBearing = b
	}
	out = append(out, cur)
	out = append(out, Instruction{Action: "arrive", At: p.Nodes[len(p.Nodes)-1]})
	return out, nil
}
