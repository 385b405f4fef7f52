//! The greedy dense-subgraph algorithm (§3.4.2, Algorithm 1).
//!
//! Three phases:
//!
//! 1. **Pre-processing**: prune entities too distant from the mentions —
//!    for every entity, sum the squared shortest weighted-path distances to
//!    all mention nodes and keep the `graph_size_factor × #mentions`
//!    closest, never dropping a mention's last candidate.
//! 2. **Main loop**: iteratively remove the non-taboo entity with the
//!    smallest weighted degree (an entity is taboo when it is the last
//!    remaining candidate of a mention it is connected to). The kept
//!    solution maximizes `min weighted degree of entities / #entities`.
//! 3. **Post-processing**: the solution may leave several candidates per
//!    mention; enumerate all combinations when feasible, otherwise run a
//!    deterministic local search, maximizing the total edge weight.

use std::ops::Range;

use ned_core::NedError;
use ned_obs::Clock;

use crate::graph::MentionEntityGraph;
use crate::obs::SolverObs;

/// Parameters of the solver (a slice of [`crate::AidaConfig`]).
#[derive(Debug, Clone, Copy)]
pub struct SolverConfig {
    /// Keep `graph_size_factor × #mentions` entities after pre-pruning.
    pub graph_size_factor: usize,
    /// Enumerate exhaustively when the combination count is at most this.
    pub exhaustive_limit: u64,
    /// Local-search sweeps when enumeration is infeasible.
    pub local_search_iterations: usize,
    /// Seed for local-search restarts.
    pub seed: u64,
    /// Deterministic iteration budget (Dijkstra pops, greedy removals, and
    /// post-processing objective evaluations each cost one unit).
    /// `u64::MAX` disables the guard.
    pub max_iterations: u64,
    /// Optional wall-clock budget in milliseconds. Nondeterministic by
    /// nature; `None` keeps runs reproducible.
    pub wall_budget_ms: Option<u64>,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            graph_size_factor: 5,
            exhaustive_limit: 20_000,
            local_search_iterations: 400,
            seed: 0xa1da,
            max_iterations: u64::MAX,
            wall_budget_ms: None,
        }
    }
}

/// The solver's iteration/wall budget. One unit is one "small" step —
/// a Dijkstra pop, one greedy removal scan, one full-assignment objective
/// evaluation — so exhaustion is deterministic for a given graph and
/// budget regardless of thread count or machine speed.
struct Budget {
    spent: u64,
    max: u64,
    started_ns: u64,
    wall_ms: Option<u64>,
    clock: Clock,
}

impl Budget {
    fn new(config: &SolverConfig, clock: &Clock) -> Self {
        Budget {
            spent: 0,
            max: config.max_iterations,
            // The wall clock bounds *runtime*, never influences *results*:
            // exhaustion yields a typed BudgetExhausted error, not a
            // different answer. With no wall budget the clock is never
            // consulted at all.
            started_ns: if config.wall_budget_ms.is_some() { clock.now_nanos() } else { 0 },
            wall_ms: config.wall_budget_ms,
            clock: clock.clone(),
        }
    }

    /// Charges one unit; errors when the budget is exhausted. The wall
    /// clock is sampled only every 1024 units to keep the guard cheap.
    fn charge(&mut self) -> Result<(), NedError> {
        self.spent = self.spent.saturating_add(1);
        if self.spent > self.max {
            return Err(NedError::BudgetExhausted { spent: self.spent, budget: self.max });
        }
        if let Some(budget_ms) = self.wall_ms {
            if self.spent.is_multiple_of(1024) {
                let elapsed_ms =
                    self.clock.now_nanos().saturating_sub(self.started_ns) / 1_000_000;
                if elapsed_ms > budget_ms {
                    return Err(NedError::DeadlineExceeded { elapsed_ms, budget_ms });
                }
            }
        }
        Ok(())
    }
}

/// Distance penalty for an entity that cannot reach a mention at all.
const UNREACHABLE: f64 = 100.0;

/// Solves the graph without a budget guard (compatibility entry point):
/// returns, per mention, the chosen entity node index (`None` only for
/// mentions without candidates).
pub fn solve(graph: &MentionEntityGraph, config: &SolverConfig) -> Vec<Option<usize>> {
    let unbounded =
        SolverConfig { max_iterations: u64::MAX, wall_budget_ms: None, ..*config };
    // With no wall budget the solver never reads the clock, and with an
    // unlimited iteration budget it cannot fail.
    solve_budgeted_observed(graph, &unbounded, &Clock::null(), &SolverObs::default())
        .unwrap_or_else(|_| vec![None; graph.mention_count])
}

/// Solves the graph under the configured iteration/wall budget.
///
/// On exhaustion, returns [`NedError::BudgetExhausted`] (deterministic) or
/// [`NedError::DeadlineExceeded`] (wall budget, opt-in): the caller — the
/// disambiguator's degradation ladder — falls back to local features
/// instead of stalling the whole batch on one adversarial document.
///
/// Wall-clock reads go through `clock` (only when a wall budget is set);
/// `obs` receives the solver's work counters, all of which count
/// deterministic algorithmic steps.
pub fn solve_budgeted_observed(
    graph: &MentionEntityGraph,
    config: &SolverConfig,
    clock: &Clock,
    obs: &SolverObs,
) -> Result<Vec<Option<usize>>, NedError> {
    let n = graph.entity_count();
    if n == 0 {
        return Ok(vec![None; graph.mention_count]);
    }
    obs.invocations.inc();
    let mut budget = Budget::new(config, clock);
    let result = (|| {
        let mut active = prune_distant_entities(graph, config, &mut budget)?;
        obs.entities_pruned.add(active.iter().filter(|&&a| !a).count() as u64);
        let best_active = greedy_min_degree(graph, &mut active, &mut budget, obs)?;
        postprocess(graph, &best_active, config, &mut budget)
    })();
    // `spent` is the ladder's iteration currency; record it whether the
    // solve finished or exhausted, so totals reflect work actually done.
    obs.iterations.add(budget.spent);
    if result.is_err() {
        obs.budget_exhausted.inc();
    }
    result
}

/// Phase 1: keep the `factor × #mentions` entities with the smallest sum of
/// squared shortest-path distances to the mention set.
fn prune_distant_entities(
    graph: &MentionEntityGraph,
    config: &SolverConfig,
    budget: &mut Budget,
) -> Result<Vec<bool>, NedError> {
    let n = graph.entity_count();
    let keep_target = config.graph_size_factor.saturating_mul(graph.mention_count).max(1);
    if n <= keep_target {
        return Ok(vec![true; n]);
    }
    // Sum of squared shortest-path distances from every mention.
    let mut distance_sum = vec![0.0f64; n];
    for mi in 0..graph.mention_count {
        let d = dijkstra_from_mention(graph, mi, budget)?;
        for (v, sum) in distance_sum.iter_mut().enumerate() {
            let dv = d[v].unwrap_or(UNREACHABLE);
            *sum += dv * dv;
        }
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| distance_sum[a].total_cmp(&distance_sum[b]));
    let mut active = vec![false; n];
    for &v in order.iter().take(keep_target) {
        active[v] = true;
    }
    // Never drop a mention's last candidate: re-add its best-weighted one.
    for (mi, cands) in graph.mention_candidates.iter().enumerate() {
        if cands.is_empty() || cands.iter().any(|&ni| active[ni]) {
            continue;
        }
        let best = cands.iter().copied().max_by(|&a, &b| {
            mention_edge_weight(graph, a, mi).total_cmp(&mention_edge_weight(graph, b, mi))
        });
        if let Some(best) = best {
            active[best] = true;
        }
    }
    Ok(active)
}

/// Dijkstra over the bipartite mention/entity graph starting at mention
/// `mi`; edge length is `1 − weight` (weights are in [0, 1] after graph
/// construction). Returns entity-node distances.
fn dijkstra_from_mention(
    graph: &MentionEntityGraph,
    mi: usize,
    budget: &mut Budget,
) -> Result<Vec<Option<f64>>, NedError> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    // Node ids: 0..n are entities, n..n+m are mentions.
    let n = graph.entity_count();
    let total = n + graph.mention_count;
    let mut dist = vec![f64::INFINITY; total];
    let mut heap: BinaryHeap<Reverse<(OrdF64, usize)>> = BinaryHeap::new();
    let start = n + mi;
    dist[start] = 0.0;
    heap.push(Reverse((OrdF64(0.0), start)));
    while let Some(Reverse((OrdF64(d), u))) = heap.pop() {
        budget.charge()?;
        if d > dist[u] {
            continue;
        }
        let relax = |v: usize, w: f64, dist: &mut Vec<f64>, heap: &mut BinaryHeap<_>| {
            let len = (1.0 - w).max(0.0);
            let nd = d + len;
            if nd < dist[v] {
                dist[v] = nd;
                heap.push(Reverse((OrdF64(nd), v)));
            }
        };
        if u < n {
            // Entity node: neighbours are its mentions and related entities.
            for &(m, w) in &graph.nodes[u].mention_edges {
                relax(n + m, w, &mut dist, &mut heap);
            }
            for &(v, w) in &graph.nodes[u].entity_edges {
                relax(v, w, &mut dist, &mut heap);
            }
        } else {
            let m = u - n;
            for &ni in &graph.mention_candidates[m] {
                let w = mention_edge_weight(graph, ni, m);
                relax(ni, w, &mut dist, &mut heap);
            }
        }
    }
    Ok((0..n).map(|v| dist[v].is_finite().then_some(dist[v])).collect())
}

/// Total-order wrapper for finite f64 keys in the heap.
#[derive(PartialEq)]
struct OrdF64(f64);

impl Eq for OrdF64 {}

impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

fn mention_edge_weight(graph: &MentionEntityGraph, ni: usize, mi: usize) -> f64 {
    graph.nodes[ni]
        .mention_edges
        .iter()
        .find(|&&(m, _)| m == mi)
        .map_or(0.0, |&(_, w)| w)
}

/// Phase 2: the greedy main loop. Mutates `active` while iterating and
/// returns the best active set found.
fn greedy_min_degree(
    graph: &MentionEntityGraph,
    active: &mut [bool],
    budget: &mut Budget,
    obs: &SolverObs,
) -> Result<Vec<bool>, NedError> {
    let n = graph.entity_count();
    let mut degree: Vec<f64> = (0..n)
        .map(|v| if active[v] { graph.weighted_degree(v, active) } else { 0.0 })
        .collect();
    // Remaining active candidates per mention.
    let mut remaining: Vec<usize> = graph
        .mention_candidates
        .iter()
        .map(|cands| cands.iter().filter(|&&ni| active[ni]).count())
        .collect();

    let objective = |active: &[bool], degree: &[f64]| -> f64 {
        let count = active.iter().filter(|&&a| a).count();
        if count == 0 {
            return f64::NEG_INFINITY;
        }
        let min_deg = (0..n)
            .filter(|&v| active[v])
            .map(|v| degree[v])
            .fold(f64::INFINITY, f64::min);
        min_deg / count as f64
    };

    let mut best_active = active.to_vec();
    let mut best_objective = objective(active, &degree);

    loop {
        budget.charge()?;
        // Taboo: entity is the last candidate of any incident mention.
        let is_taboo = |v: usize| {
            graph.nodes[v]
                .mention_edges
                .iter()
                .any(|&(m, _)| remaining[m] <= 1 && graph.mention_candidates[m].contains(&v))
        };
        let mut taboo_now = 0u64;
        let victim = (0..n)
            .filter(|&v| active[v])
            .filter(|&v| {
                if is_taboo(v) {
                    taboo_now += 1;
                    false
                } else {
                    true
                }
            })
            .min_by(|&a, &b| degree[a].total_cmp(&degree[b]));
        obs.taboo_hits.add(taboo_now);
        let Some(v) = victim else { break };
        // Remove v and update neighbour degrees.
        active[v] = false;
        degree[v] = 0.0;
        for &(u, w) in &graph.nodes[v].entity_edges {
            if active[u] {
                degree[u] -= w;
            }
        }
        for &(m, _) in &graph.nodes[v].mention_edges {
            if graph.mention_candidates[m].contains(&v) {
                remaining[m] -= 1;
            }
        }
        let obj = objective(active, &degree);
        if obj > best_objective {
            best_objective = obj;
            best_active = active.to_vec();
        }
    }
    Ok(best_active)
}

/// Phase 3: resolve mentions that still have several active candidates.
fn postprocess(
    graph: &MentionEntityGraph,
    active: &[bool],
    config: &SolverConfig,
    budget: &mut Budget,
) -> Result<Vec<Option<usize>>, NedError> {
    let objective = Objective::new(graph, active);
    if objective.combinations_within(config.exhaustive_limit) {
        objective.exhaustive(budget)
    } else {
        objective.local_search(config, budget)
    }
}

/// The post-processing objective of one solve, built once: the weight of a
/// full assignment is its chosen mention-edge weights plus the entity-edge
/// weights between distinct chosen nodes, each pair once. Every float is
/// added in the order the per-assignment reference
/// (`reference::assignment_weight`) adds it — mention terms in mention
/// order from `+0.0`, then edges by ascending first end, each node's edges
/// in list order — so weights, ties and winners are bitwise the same
/// (DESIGN.md §8).
struct Objective {
    /// Mention `mi`'s choices are `choices[start[mi]..start[mi + 1]]`.
    start: Vec<usize>,
    /// Every mention's active candidates, in mention order, as
    /// `(node, mention-edge weight)`.
    choices: Vec<(usize, f64)>,
    /// The entity edges `(a, b, weight)` with `a < b` and both ends
    /// choosable, in the order the reference adds them.
    edges: Vec<(usize, usize, f64)>,
    /// Number of entity nodes: the length of a per-node chosen count.
    node_count: usize,
}

/// A mention with two or more choices: one level of the exhaustive
/// enumeration. Every other mention is fixed to its only choice (or none).
struct Level {
    /// The mention's choices (a range of `Objective::choices`).
    choices: Range<usize>,
    /// The current choice, an index into `Objective::choices`.
    pick: usize,
    /// The fixed choices between this mention and the next level.
    tail: Range<usize>,
    /// The mention-edge sum through `tail` under the current picks.
    sum: f64,
}

impl Objective {
    fn new(graph: &MentionEntityGraph, active: &[bool]) -> Self {
        let node_count = graph.entity_count();
        let mut start = Vec::with_capacity(graph.mention_candidates.len() + 1);
        let mut choices = Vec::new();
        let mut choosable = vec![false; node_count];
        start.push(0);
        for (mi, cands) in graph.mention_candidates.iter().enumerate() {
            for &ni in cands.iter().filter(|&&ni| active.get(ni) == Some(&true)) {
                choices.push((ni, mention_edge_weight(graph, ni, mi)));
                if let Some(c) = choosable.get_mut(ni) {
                    *c = true;
                }
            }
            start.push(choices.len());
        }
        let is_choosable = |ni: usize| choosable.get(ni) == Some(&true);
        let edges = graph
            .nodes
            .iter()
            .enumerate()
            .filter(|&(a, _)| is_choosable(a))
            .flat_map(|(a, node)| {
                node.entity_edges
                    .iter()
                    .filter(move |&&(b, _)| b > a && is_choosable(b))
                    .map(move |&(b, w)| (a, b, w))
            })
            .collect();
        Objective { start, choices, edges, node_count }
    }

    /// Each mention's range of `choices`.
    fn mention_ranges(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        self.start.iter().zip(self.start.iter().skip(1)).map(|(&lo, &hi)| lo..hi)
    }

    /// Whether the number of combinations (a mention without choices counts
    /// once) is at most `limit`.
    fn combinations_within(&self, limit: u64) -> bool {
        self.mention_ranges()
            .try_fold(1u64, |combos, r| {
                let combos = combos.saturating_mul(r.len().max(1) as u64);
                (combos <= limit).then_some(combos)
            })
            .is_some_and(|combos| combos <= limit)
    }

    fn node_of(&self, choice: usize) -> Option<usize> {
        self.choices.get(choice).map(|&(ni, _)| ni)
    }

    /// `sum` plus the mention-edge weights of `choices`, in order.
    fn add_choices(&self, sum: f64, choices: Range<usize>) -> f64 {
        self.choices.get(choices).unwrap_or_default().iter().fold(sum, |s, &(_, w)| s + w)
    }

    /// `sum` plus every listed edge whose two ends are chosen
    /// (`count[node] > 0`: two mentions may choose the same node).
    fn add_edges(&self, sum: f64, count: &[u32]) -> f64 {
        let chosen = |ni: usize| count.get(ni).is_some_and(|&c| c > 0);
        self.edges.iter().fold(sum, |s, &(a, b, w)| if chosen(a) && chosen(b) { s + w } else { s })
    }

    /// The objective of a full assignment (per mention, a choice index or
    /// none). `count` is scratch of length `node_count`.
    fn weight(&self, assignment: &[Option<usize>], count: &mut [u32]) -> f64 {
        count.fill(0);
        let mut sum = 0.0;
        for &(ni, w) in assignment.iter().flatten().filter_map(|&c| self.choices.get(c)) {
            sum += w;
            if let Some(n) = count.get_mut(ni) {
                *n += 1;
            }
        }
        self.add_edges(sum, count)
    }

    /// The enumeration levels and the fixed choices before the first.
    fn levels(&self) -> (Range<usize>, Vec<Level>) {
        let end = self.choices.len();
        let mut head = 0..end;
        let mut levels: Vec<Level> = Vec::new();
        for choices in self.mention_ranges().filter(|r| r.len() >= 2) {
            match levels.last_mut() {
                Some(last) => last.tail.end = choices.start,
                None => head.end = choices.start,
            }
            levels.push(Level { pick: choices.start, tail: choices.end..end, choices, sum: 0.0 });
        }
        (head, levels)
    }

    /// Visits every combination in the reference order (the last mention
    /// varies fastest), charging one budget unit each, and passes `leaf`
    /// the levels' picks and the combination's weight. Only the levels
    /// branch — at most log2 of the combination count — so neither the
    /// depth nor the stack grows with the mention count. The mention-edge
    /// sum is carried down the levels, so a combination adds only its
    /// last level's terms and the edges.
    fn for_each_combination(
        &self,
        budget: &mut Budget,
        mut leaf: impl FnMut(&[Level], f64),
    ) -> Result<(), NedError> {
        let (head, mut levels) = self.levels();
        let head_sum = self.add_choices(0.0, head.clone());
        let mut count = vec![0u32; self.node_count];
        let fixed = std::iter::once(head).chain(levels.iter().map(|l| l.tail.clone()));
        for ni in fixed.flatten().filter_map(|c| self.node_of(c)) {
            if let Some(n) = count.get_mut(ni) {
                *n += 1;
            }
        }
        let mut depth = 0usize;
        loop {
            let mut sum =
                depth.checked_sub(1).and_then(|d| levels.get(d)).map_or(head_sum, |l| l.sum);
            for level in levels.iter_mut().skip(depth) {
                if let Some(&(ni, w)) = self.choices.get(level.pick) {
                    if let Some(n) = count.get_mut(ni) {
                        *n += 1;
                    }
                    sum = self.add_choices(sum + w, level.tail.clone());
                }
                level.sum = sum;
            }
            budget.charge()?;
            leaf(&levels, self.add_edges(sum, &count));
            // Advance the deepest level that has a next choice; the levels
            // below it wrap to their first.
            let next = levels.iter_mut().enumerate().rev().find_map(|(d, level)| {
                if let Some(n) = self.node_of(level.pick).and_then(|ni| count.get_mut(ni)) {
                    *n -= 1;
                }
                level.pick += 1;
                if level.pick < level.choices.end {
                    return Some(d);
                }
                level.pick = level.choices.start;
                None
            });
            match next {
                Some(d) => depth = d,
                None => return Ok(()),
            }
        }
    }

    /// The node assignment that takes `picks` (one choice per level, in
    /// order) and every fixed mention's only choice.
    fn assignment(&self, picks: &[usize]) -> Vec<Option<usize>> {
        let mut picks = picks.iter().copied();
        self.mention_ranges()
            .map(|r| {
                let choice = if r.len() >= 2 { picks.next() } else { r.clone().next() };
                choice.and_then(|c| self.node_of(c))
            })
            .collect()
    }

    /// Enumerates every combination and keeps the first of maximum weight.
    /// When no weight beats −∞ (all NaN, say), every mention stays `None`.
    fn exhaustive(&self, budget: &mut Budget) -> Result<Vec<Option<usize>>, NedError> {
        let mut best: Option<Vec<usize>> = None;
        let mut best_weight = f64::NEG_INFINITY;
        self.for_each_combination(budget, |levels, weight| {
            if weight > best_weight {
                best_weight = weight;
                let picks = best.get_or_insert_with(Vec::new);
                picks.clear();
                picks.extend(levels.iter().map(|l| l.pick));
            }
        })?;
        Ok(match best {
            Some(picks) => self.assignment(&picks),
            None => vec![None; self.start.len().saturating_sub(1)],
        })
    }

    /// Deterministic hill climbing from the per-mention best local weight
    /// and from random restarts; one budget unit per move.
    fn local_search(
        &self,
        config: &SolverConfig,
        budget: &mut Budget,
    ) -> Result<Vec<Option<usize>>, NedError> {
        let mut rng = XorShift(config.seed | 1);
        let mut count = vec![0u32; self.node_count];
        let weight_of = |c: usize| self.choices.get(c).map_or(0.0, |&(_, w)| w);
        let greedy_start: Vec<Option<usize>> = self
            .mention_ranges()
            .map(|r| r.max_by(|&a, &b| weight_of(a).total_cmp(&weight_of(b))))
            .collect();
        let mut best = greedy_start.clone();
        let mut best_weight = self.weight(&best, &mut count);
        let mut current = Vec::with_capacity(greedy_start.len());

        const RESTARTS: usize = 4;
        for restart in 0..RESTARTS {
            current.clear();
            if restart == 0 {
                current.extend_from_slice(&greedy_start);
            } else {
                // Random restart: candidates sampled uniformly.
                current.extend(
                    self.mention_ranges()
                        .map(|r| (!r.is_empty()).then(|| r.start + rng.below(r.len()))),
                );
            }
            let mut current_weight = self.weight(&current, &mut count);
            // Hill climbing: sweep mentions, trying each candidate. A
            // rejected move restores the mention's choice from before the
            // sweep reached it, as the reference does.
            for _ in 0..config.local_search_iterations {
                let mut improved = false;
                for (mi, choices) in self.mention_ranges().enumerate() {
                    if choices.len() < 2 {
                        continue;
                    }
                    let original = current.get(mi).copied().flatten();
                    let original_node = original.and_then(|c| self.node_of(c));
                    for c in choices.filter(|&c| self.node_of(c) != original_node) {
                        budget.charge()?;
                        set_choice(&mut current, mi, Some(c));
                        let w = self.weight(&current, &mut count);
                        if w > current_weight {
                            current_weight = w;
                            improved = true;
                        } else {
                            set_choice(&mut current, mi, original);
                        }
                    }
                }
                if !improved {
                    break;
                }
            }
            if current_weight > best_weight {
                best_weight = current_weight;
                best.clone_from(&current);
            }
        }
        Ok(best.iter().map(|c| c.and_then(|c| self.node_of(c))).collect())
    }
}

fn set_choice(assignment: &mut [Option<usize>], mi: usize, choice: Option<usize>) {
    if let Some(slot) = assignment.get_mut(mi) {
        *slot = choice;
    }
}

/// xorshift64* generator for deterministic restarts.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0.max(1);
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The per-assignment post-processing the solver used before [`Objective`]:
/// every combination and every local-search move recomputed by
/// `assignment_weight`, one stack frame per mention. Kept as the reference
/// the objective must match bit for bit, budget charges included.
#[cfg(test)]
mod reference {
    use super::*;

    pub(super) fn postprocess(
        graph: &MentionEntityGraph,
        active: &[bool],
        config: &SolverConfig,
        budget: &mut Budget,
    ) -> Result<Vec<Option<usize>>, NedError> {
        let choices: Vec<Vec<usize>> = graph
            .mention_candidates
            .iter()
            .map(|cands| cands.iter().copied().filter(|&ni| active[ni]).collect::<Vec<_>>())
            .collect();
        // Combination count with saturation.
        let mut combos: u64 = 1;
        for c in &choices {
            combos = combos.saturating_mul(c.len().max(1) as u64);
            if combos > config.exhaustive_limit {
                break;
            }
        }
        if combos <= config.exhaustive_limit {
            exhaustive(graph, &choices, budget)
        } else {
            local_search(graph, &choices, config, budget)
        }
    }

    /// Total objective of a full assignment: chosen mention-edge weights
    /// plus entity-edge weights between distinct chosen nodes (each pair
    /// once).
    pub(super) fn assignment_weight(
        graph: &MentionEntityGraph,
        assignment: &[Option<usize>],
    ) -> f64 {
        let mut total = 0.0;
        let mut chosen: Vec<usize> = Vec::with_capacity(assignment.len());
        for (mi, &a) in assignment.iter().enumerate() {
            if let Some(ni) = a {
                total += mention_edge_weight(graph, ni, mi);
                chosen.push(ni);
            }
        }
        chosen.sort_unstable();
        chosen.dedup();
        for (i, &a) in chosen.iter().enumerate() {
            for &(b, w) in &graph.nodes[a].entity_edges {
                if chosen[i + 1..].binary_search(&b).is_ok() {
                    total += w;
                }
            }
        }
        total
    }

    fn exhaustive(
        graph: &MentionEntityGraph,
        choices: &[Vec<usize>],
        budget: &mut Budget,
    ) -> Result<Vec<Option<usize>>, NedError> {
        let m = choices.len();
        let mut current: Vec<Option<usize>> = vec![None; m];
        let mut best: Vec<Option<usize>> = vec![None; m];
        let mut best_weight = f64::NEG_INFINITY;
        fn recurse(
            graph: &MentionEntityGraph,
            choices: &[Vec<usize>],
            mi: usize,
            current: &mut Vec<Option<usize>>,
            best: &mut Vec<Option<usize>>,
            best_weight: &mut f64,
            budget: &mut Budget,
        ) -> Result<(), NedError> {
            if mi == choices.len() {
                budget.charge()?;
                let w = assignment_weight(graph, current);
                if w > *best_weight {
                    *best_weight = w;
                    best.clone_from(current);
                }
                return Ok(());
            }
            if choices[mi].is_empty() {
                current[mi] = None;
                return recurse(graph, choices, mi + 1, current, best, best_weight, budget);
            }
            for &ni in &choices[mi] {
                current[mi] = Some(ni);
                recurse(graph, choices, mi + 1, current, best, best_weight, budget)?;
            }
            Ok(())
        }
        recurse(graph, choices, 0, &mut current, &mut best, &mut best_weight, budget)?;
        Ok(best)
    }

    fn local_search(
        graph: &MentionEntityGraph,
        choices: &[Vec<usize>],
        config: &SolverConfig,
        budget: &mut Budget,
    ) -> Result<Vec<Option<usize>>, NedError> {
        let m = choices.len();
        let mut rng = XorShift(config.seed | 1);
        // Start from per-mention best local weight.
        let greedy_start: Vec<Option<usize>> = choices
            .iter()
            .enumerate()
            .map(|(mi, cands)| {
                cands.iter().copied().max_by(|&a, &b| {
                    mention_edge_weight(graph, a, mi).total_cmp(&mention_edge_weight(graph, b, mi))
                })
            })
            .collect();
        let mut best = greedy_start.clone();
        let mut best_weight = assignment_weight(graph, &best);

        const RESTARTS: usize = 4;
        for restart in 0..RESTARTS {
            let mut current = if restart == 0 {
                greedy_start.clone()
            } else {
                // Random restart: candidates sampled uniformly.
                choices
                    .iter()
                    .map(|cands| (!cands.is_empty()).then(|| cands[rng.below(cands.len())]))
                    .collect()
            };
            let mut current_weight = assignment_weight(graph, &current);
            // Hill climbing: sweep mentions, trying each candidate.
            for _ in 0..config.local_search_iterations {
                let mut improved = false;
                for mi in 0..m {
                    if choices[mi].len() < 2 {
                        continue;
                    }
                    let original = current[mi];
                    for &ni in &choices[mi] {
                        if Some(ni) == original {
                            continue;
                        }
                        budget.charge()?;
                        current[mi] = Some(ni);
                        let w = assignment_weight(graph, &current);
                        if w > current_weight {
                            current_weight = w;
                            improved = true;
                        } else {
                            current[mi] = original;
                        }
                    }
                }
                if !improved {
                    break;
                }
            }
            if current_weight > best_weight {
                best_weight = current_weight;
                best = current;
            }
        }
        Ok(best)
    }
}

#[cfg(test)]
mod tests {
    use super::reference::assignment_weight;
    use super::*;
    use crate::graph::EntityNode;
    use ned_kb::EntityId;
    use ned_relatedness::Relatedness;

    struct TableRel(Vec<(EntityId, EntityId, f64)>);

    impl Relatedness for TableRel {
        fn name(&self) -> &'static str {
            "table"
        }
        fn relatedness(&self, a: EntityId, b: EntityId) -> f64 {
            self.0
                .iter()
                .find(|&&(x, y, _)| (x == a && y == b) || (x == b && y == a))
                .map_or(0.0, |&(_, _, w)| w)
        }
    }

    fn e(i: u32) -> EntityId {
        EntityId(i)
    }

    /// The graph over `local` with the coherence table of `rel`.
    fn build(local: &[Vec<(EntityId, f64)>], rel: &TableRel, gamma: f64) -> MentionEntityGraph {
        let table = crate::coherence::CoherenceTable::build(rel, local, local);
        MentionEntityGraph::build(local, Some(&table), gamma)
    }

    /// The Page/Kashmir scenario: coherence must override the misleading
    /// local preference of mention 0.
    fn coherent_graph() -> MentionEntityGraph {
        // Mention 0 "Kashmir": region (local 0.9) vs song (local 0.5).
        // Mention 1 "Page": Jimmy (0.6) vs Larry (0.55).
        // Song–Jimmy strongly related; region related to nothing.
        let local = vec![
            vec![(e(10), 0.9), (e(11), 0.5)], // 10 = region, 11 = song
            vec![(e(20), 0.6), (e(21), 0.55)], // 20 = Jimmy, 21 = Larry
        ];
        let rel = TableRel(vec![(e(11), e(20), 1.0)]);
        build(&local, &rel, 0.6)
    }

    fn chosen_entities(
        graph: &MentionEntityGraph,
        solution: &[Option<usize>],
    ) -> Vec<Option<EntityId>> {
        solution.iter().map(|s| s.map(|ni| graph.nodes[ni].entity)).collect()
    }

    #[test]
    fn coherence_overrides_local_preference() {
        let graph = coherent_graph();
        let solution = solve(&graph, &SolverConfig::default());
        let chosen = chosen_entities(&graph, &solution);
        assert_eq!(chosen, vec![Some(e(11)), Some(e(20))]);
    }

    #[test]
    fn every_mention_gets_exactly_one_entity() {
        let graph = coherent_graph();
        let solution = solve(&graph, &SolverConfig::default());
        assert_eq!(solution.len(), graph.mention_count);
        assert!(solution.iter().all(|s| s.is_some()));
    }

    #[test]
    fn empty_graph_maps_nothing() {
        let local: Vec<Vec<(EntityId, f64)>> = vec![vec![], vec![]];
        let rel = TableRel(vec![]);
        let graph = build(&local, &rel, 0.4);
        let solution = solve(&graph, &SolverConfig::default());
        assert_eq!(solution, vec![None, None]);
    }

    #[test]
    fn mention_without_candidates_is_unmapped_others_resolved() {
        let local = vec![vec![], vec![(e(1), 0.7)]];
        let rel = TableRel(vec![]);
        let graph = build(&local, &rel, 0.4);
        let solution = solve(&graph, &SolverConfig::default());
        assert_eq!(solution[0], None);
        assert!(solution[1].is_some());
    }

    #[test]
    fn pruning_keeps_last_candidates() {
        // 30 mentions × 1 candidate each with tiny factor: every candidate
        // is some mention's last and must survive.
        let local: Vec<Vec<(EntityId, f64)>> =
            (0..30).map(|i| vec![(e(i), 0.5 + (i as f64) * 0.01)]).collect();
        let rel = TableRel(vec![]);
        let graph = build(&local, &rel, 0.4);
        let config = SolverConfig { graph_size_factor: 1, ..Default::default() };
        let solution = solve(&graph, &config);
        assert!(solution.iter().all(|s| s.is_some()));
    }

    #[test]
    fn local_search_matches_exhaustive_on_small_graph() {
        let graph = coherent_graph();
        let exhaustive_solution = solve(&graph, &SolverConfig::default());
        let ls_solution =
            solve(&graph, &SolverConfig { exhaustive_limit: 0, ..Default::default() });
        assert_eq!(
            assignment_weight(&graph, &exhaustive_solution),
            assignment_weight(&graph, &ls_solution)
        );
    }

    #[test]
    fn solver_is_deterministic() {
        let graph = coherent_graph();
        let a = solve(&graph, &SolverConfig::default());
        let b = solve(&graph, &SolverConfig::default());
        assert_eq!(a, b);
    }

    /// One mention with 2000 candidates: the pruning phase's Dijkstra pops
    /// every node, charging > 1024 units and crossing the wall-clock
    /// sampling cadence before any greedy shrinking happens.
    fn wide_graph() -> MentionEntityGraph {
        let local: Vec<Vec<(EntityId, f64)>> =
            vec![(0..2000u32).map(|ci| (e(ci), 0.5)).collect()];
        build(&local, &TableRel(vec![]), 0.4)
    }

    #[test]
    fn manual_clock_deadline_is_deterministic() {
        let config = SolverConfig { wall_budget_ms: Some(5), ..Default::default() };
        // Advance the hand *after* the budget reads its start time — as if
        // 10 ms passed mid-solve — and charge up to the sampling point.
        let (clock, hand) = Clock::manual();
        let mut budget = Budget::new(&config, &clock);
        hand.advance_ms(10);
        for _ in 0..1023 {
            budget.charge().expect("below the sampling cadence");
        }
        let err = budget.charge();
        assert!(matches!(err, Err(NedError::DeadlineExceeded { .. })), "{err:?}");
        // The whole solver under an idle manual clock: the wall budget
        // never trips, no real time involved.
        let graph = wide_graph();
        let (idle, _hand) = Clock::manual();
        let result = solve_budgeted_observed(&graph, &config, &idle, &SolverObs::default());
        assert!(result.is_ok());
    }

    #[test]
    fn solver_counters_track_work_and_exhaustion() {
        use ned_obs::{names, Metrics};
        let graph = wide_graph();
        let metrics = Metrics::new();
        let obs = SolverObs::new(&metrics);
        let ok = solve_budgeted_observed(
            &graph,
            &SolverConfig::default(),
            &Clock::null(),
            &obs,
        );
        assert!(ok.is_ok());
        assert_eq!(metrics.counter_value(names::AIDA_SOLVER_INVOCATIONS), 1);
        assert!(metrics.counter_value(names::AIDA_SOLVER_ITERATIONS) > 1024);
        assert!(metrics.counter_value(names::AIDA_SOLVER_ENTITIES_PRUNED) > 0);
        assert_eq!(metrics.counter_value(names::AIDA_SOLVER_BUDGET_EXHAUSTED), 0);
        let starved = SolverConfig { max_iterations: 10, ..Default::default() };
        let err = solve_budgeted_observed(&graph, &starved, &Clock::null(), &obs);
        assert!(matches!(err, Err(NedError::BudgetExhausted { .. })));
        assert_eq!(metrics.counter_value(names::AIDA_SOLVER_BUDGET_EXHAUSTED), 1);
        assert_eq!(metrics.counter_value(names::AIDA_SOLVER_INVOCATIONS), 2);
    }

    #[test]
    fn assignment_weight_counts_pairs_once() {
        let graph = coherent_graph();
        // Choose song (node of e11) and Jimmy (node of e20).
        let song = graph.nodes.iter().position(|n| n.entity == e(11)).unwrap();
        let jimmy = graph.nodes.iter().position(|n| n.entity == e(20)).unwrap();
        let w = assignment_weight(&graph, &[Some(song), Some(jimmy)]);
        let me: f64 =
            mention_edge_weight(&graph, song, 0) + mention_edge_weight(&graph, jimmy, 1);
        let ee = graph.nodes[song]
            .entity_edges
            .iter()
            .find(|&&(v, _)| v == jimmy)
            .map(|&(_, w)| w)
            .unwrap();
        assert!((w - (me + ee)).abs() < 1e-12);
    }

    /// 20,000 mentions with one candidate each: one combination, solved
    /// on a 256 KiB stack, an eighth of a default thread's. The solver must
    /// not take a stack frame per mention: an overflow aborts the process
    /// instead of panicking the document.
    #[test]
    fn deep_document_solves_on_a_small_stack() {
        let local: Vec<Vec<(EntityId, f64)>> =
            (0..20_000u32).map(|i| vec![(e(i), 0.5 + f64::from(i % 7) * 0.01)]).collect();
        let graph = MentionEntityGraph::build(&local, None, 0.0);
        let solution = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(move || {
                let solution = solve(&graph, &SolverConfig::default());
                (graph, solution)
            })
            .unwrap()
            .join();
        let (graph, solution) = solution.expect("the solver thread finished");
        assert_eq!(solution.len(), 20_000);
        for (mi, (chosen, cands)) in solution.iter().zip(&graph.mention_candidates).enumerate() {
            assert_eq!(*chosen, cands.first().copied(), "mention {mi}");
        }
    }

    /// A weight for the random graphs: ordinary values in [0, 1), zero,
    /// subnormals, +∞ and NaN.
    fn random_weight(rng: &mut XorShift) -> f64 {
        match rng.below(10) {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::MIN_POSITIVE / 3.0,
            3 => f64::from_bits(1),
            4 => 0.0,
            _ => (rng.next() >> 11) as f64 / (1u64 << 53) as f64,
        }
    }

    /// A random graph and active set: 0–12 mentions with 0–4 candidates
    /// each, drawn with replacement from a pool of up to 8 nodes (so nodes
    /// are shared across mentions and may repeat within one), and entity
    /// edges in random order, duplicates and self-loops included.
    fn random_graph(seed: u64) -> (MentionEntityGraph, Vec<bool>) {
        let mut rng = XorShift(seed);
        let node_count = 1 + rng.below(8);
        let mention_count = rng.below(13);
        let mut nodes: Vec<EntityNode> = (0..node_count)
            .map(|ni| EntityNode {
                entity: e(ni as u32),
                mention_edges: Vec::new(),
                entity_edges: Vec::new(),
            })
            .collect();
        let mut mention_candidates = Vec::with_capacity(mention_count);
        for mi in 0..mention_count {
            let cands: Vec<usize> = (0..rng.below(5)).map(|_| rng.below(node_count)).collect();
            for &ni in &cands {
                let w = random_weight(&mut rng);
                nodes[ni].mention_edges.push((mi, w));
            }
            mention_candidates.push(cands);
        }
        for _ in 0..rng.below(4 * node_count + 1) {
            let (a, b) = (rng.below(node_count), rng.below(node_count));
            let w = random_weight(&mut rng);
            nodes[a].entity_edges.push((b, w));
            if a != b {
                nodes[b].entity_edges.push((a, w));
            }
        }
        let active = (0..node_count).map(|_| rng.below(4) != 0).collect();
        (MentionEntityGraph { mention_count, nodes, mention_candidates }, active)
    }

    type Postprocess =
        fn(&MentionEntityGraph, &[bool], &SolverConfig, &mut Budget) -> PostprocessResult;
    type PostprocessResult = Result<Vec<Option<usize>>, NedError>;

    /// Runs one post-processing path; returns its result (errors by their
    /// debug form) and the budget it spent.
    fn run_postprocess(
        postprocess: Postprocess,
        graph: &MentionEntityGraph,
        active: &[bool],
        config: &SolverConfig,
    ) -> (Result<Vec<Option<usize>>, String>, u64) {
        let mut budget = Budget::new(config, &Clock::null());
        let result = postprocess(graph, active, config, &mut budget);
        (result.map_err(|err| format!("{err:?}")), budget.spent)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Any assignment, a mention without a choice included, weighs the
        /// same bits through the objective as through the reference.
        #[test]
        fn objective_weight_is_bitwise_the_reference(seed in proptest::prelude::any::<u64>()) {
            let (graph, active) = random_graph(seed);
            let objective = Objective::new(&graph, &active);
            let mut rng = XorShift(seed.rotate_left(29));
            let mut count = vec![0; objective.node_count];
            for _ in 0..8 {
                let assignment: Vec<Option<usize>> = objective
                    .mention_ranges()
                    .map(|r| {
                        let pick = !r.is_empty() && rng.below(8) != 0;
                        pick.then(|| r.start + rng.below(r.len()))
                    })
                    .collect();
                let nodes: Vec<Option<usize>> =
                    assignment.iter().map(|c| c.and_then(|c| objective.node_of(c))).collect();
                proptest::prop_assert_eq!(
                    objective.weight(&assignment, &mut count).to_bits(),
                    assignment_weight(&graph, &nodes).to_bits()
                );
            }
        }

        /// Every combination of the enumeration carries the reference's
        /// weight bits, and each costs one budget unit.
        #[test]
        fn every_combination_weighs_as_the_reference(seed in proptest::prelude::any::<u64>()) {
            let (graph, active) = random_graph(seed);
            let objective = Objective::new(&graph, &active);
            if objective.combinations_within(SolverConfig::default().exhaustive_limit) {
                let mut budget = Budget::new(&SolverConfig::default(), &Clock::null());
                let (mut combinations, mut mismatches) = (0u64, Vec::new());
                objective
                    .for_each_combination(&mut budget, |levels, weight| {
                        let picks: Vec<usize> = levels.iter().map(|l| l.pick).collect();
                        let nodes = objective.assignment(&picks);
                        if weight.to_bits() != assignment_weight(&graph, &nodes).to_bits() {
                            mismatches.push(nodes);
                        }
                        combinations += 1;
                    })
                    .unwrap();
                proptest::prop_assert!(mismatches.is_empty(), "{mismatches:?}");
                proptest::prop_assert_eq!(budget.spent, combinations);
            }
        }

        /// Post-processing picks the reference's nodes with the reference's
        /// spend, in the exhaustive branch and in local search (forced by
        /// `exhaustive_limit: 0`), and a budget below that spend runs out
        /// at the same unit on both sides.
        #[test]
        fn postprocess_is_bitwise_the_reference(
            seed in proptest::prelude::any::<u64>(),
            branch in 0usize..3,
        ) {
            let (graph, active) = random_graph(seed);
            let config = SolverConfig {
                exhaustive_limit: [20_000, 0, 16][branch],
                local_search_iterations: 1 + (seed % 6) as usize,
                seed: seed.rotate_left(13),
                ..SolverConfig::default()
            };
            let (expected, spent) =
                run_postprocess(reference::postprocess, &graph, &active, &config);
            proptest::prop_assert!(expected.is_ok());
            proptest::prop_assert_eq!(
                run_postprocess(postprocess, &graph, &active, &config),
                (expected, spent)
            );
            if spent > 0 {
                let starved = SolverConfig { max_iterations: seed % spent, ..config };
                let (expected, spent) =
                    run_postprocess(reference::postprocess, &graph, &active, &starved);
                proptest::prop_assert!(
                    expected.as_ref().is_err_and(|err| err.starts_with("BudgetExhausted")),
                    "{expected:?}"
                );
                proptest::prop_assert_eq!(
                    run_postprocess(postprocess, &graph, &active, &starved),
                    (expected, spent)
                );
            }
        }
    }
}
