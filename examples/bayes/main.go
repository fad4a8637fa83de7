// Bayesian-network triangulation (thesis §4.5): the genetic algorithm with
// the Larrañaga objective — minimise the total clique state space
// log₂ Σ_u ∏_{v∈χ(u)} states(v) — on the moral graph of a small diagnostic
// network, compared against the plain treewidth objective. The weighted
// objective penalises putting large-domain variables into big cliques,
// which pure treewidth ignores.
//
//	go run ./examples/bayes
package main

import (
	"fmt"

	"hypertree"
)

// A small diagnostic network: diseases (large domains) point at symptoms
// (small domains). Moralisation connects co-parents.
var (
	variables = []string{
		"Flu", "Covid", "Allergy", // diseases, 4 states each
		"Fever", "Cough", "Sneeze", "Fatigue", "Headache", // symptoms, 2 states
		"Season", // 12 states (months)
	}
	states = []int{4, 4, 4, 2, 2, 2, 2, 2, 12}
	// Directed edges parent → child of the network.
	arcs = [][2]string{
		{"Season", "Flu"}, {"Season", "Allergy"},
		{"Flu", "Fever"}, {"Covid", "Fever"},
		{"Flu", "Cough"}, {"Covid", "Cough"}, {"Allergy", "Cough"},
		{"Allergy", "Sneeze"}, {"Flu", "Fatigue"}, {"Covid", "Fatigue"},
		{"Covid", "Headache"},
	}
)

func main() {
	h := moralize()
	fmt.Printf("moral graph: %d variables, %d edges\n", h.NumVertices(), h.NumEdges())

	cfg := htd.GAConfig{
		PopulationSize: 60,
		CrossoverRate:  1.0,
		MutationRate:   0.3,
		TournamentSize: 3,
		Generations:    120,
		Seed:           7,
		HeuristicSeeds: 2,
	}

	// Weighted objective (junction-tree inference cost).
	res := htd.WeightedTriangulation(h, states, cfg)
	fmt.Printf("weighted GA:   total clique state space = 2^%.2f\n", res.Weight)

	// Plain treewidth objective: minimise the largest clique cardinality,
	// then score the winning ordering under the weighted measure.
	twRes, err := htd.Treewidth(h.PrimalGraph(), htd.Options{Method: htd.MethodGA, GA: &cfg, Seed: 7})
	if err != nil {
		panic(err)
	}
	twWeighted := htd.WeightedWidth(h, states, twRes.Ordering)
	fmt.Printf("treewidth GA:  width = %d; its ordering scores 2^%.2f under the weighted measure\n",
		twRes.Width, twWeighted)

	if res.Weight <= twWeighted+1e-9 {
		fmt.Println("→ the weighted objective found an ordering at least as cheap for inference")
	} else {
		fmt.Println("→ on this run the treewidth ordering was also weighted-optimal")
	}

	fmt.Println("\nelimination ordering of the weighted optimum (first eliminated first):")
	for i, v := range res.Ordering {
		fmt.Printf("  %2d. %-8s (%d states)\n", i+1, variables[v], states[v])
	}
}

func moralize() *htd.Hypergraph {
	b := htd.NewBuilder()
	for _, v := range variables {
		b.Vertex(v)
	}
	// Moral graph: connect each parent–child pair and all co-parents.
	parents := map[string][]string{}
	edge := func(a, bv string) { b.AddEdge("", a, bv) }
	for _, arc := range arcs {
		edge(arc[0], arc[1])
		parents[arc[1]] = append(parents[arc[1]], arc[0])
	}
	for _, ps := range parents {
		for i := 0; i < len(ps); i++ {
			for j := i + 1; j < len(ps); j++ {
				edge(ps[i], ps[j])
			}
		}
	}
	return b.Build()
}
