//! Graph traversal utilities: BFS distances, path reconstruction,
//! connectivity and diameters over [`UnGraph`].

use std::collections::{BTreeSet, VecDeque};

use crate::UnGraph;

/// Unweighted single-source shortest-path distances (`usize::MAX` marks
/// unreachable nodes) together with BFS parents for path reconstruction.
#[derive(Debug, Clone)]
pub struct BfsResult {
    /// Hop distance from the source to every node.
    pub dist: Vec<usize>,
    /// BFS parent of every node (`usize::MAX` for the source and unreachable nodes).
    pub parent: Vec<usize>,
}

/// Breadth-first search from `source`, optionally restricted to a node set.
#[expect(
    clippy::indexing_slicing,
    reason = "`source < n` is checked above, and neighbours of a graph node are graph nodes"
)]
pub fn bfs(graph: &UnGraph, source: usize, within: Option<&BTreeSet<usize>>) -> BfsResult {
    let n = graph.node_count();
    let mut dist = vec![usize::MAX; n];
    let mut parent = vec![usize::MAX; n];
    if source >= n || within.is_some_and(|w| !w.contains(&source)) {
        return BfsResult { dist, parent };
    }
    let mut queue = VecDeque::new();
    dist[source] = 0;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        for v in graph.neighbors(u) {
            if let Some(w) = within {
                if !w.contains(&v) {
                    continue;
                }
            }
            if dist[v] == usize::MAX {
                dist[v] = dist[u] + 1;
                parent[v] = u;
                queue.push_back(v);
            }
        }
    }
    BfsResult { dist, parent }
}

/// Reconstructs the path from the BFS/Dijkstra source to `target` using the
/// parent array; returns `None` when `target` is unreachable.
#[expect(
    clippy::indexing_slicing,
    reason = "a parent array holds `usize::MAX` or node ids within its own length, and `target` is a node"
)]
pub fn reconstruct_path(parent: &[usize], source: usize, target: usize) -> Option<Vec<usize>> {
    if source == target {
        return Some(vec![source]);
    }
    if parent[target] == usize::MAX {
        return None;
    }
    let mut path = vec![target];
    let mut cur = target;
    while cur != source {
        cur = parent[cur];
        path.push(cur);
        if path.len() > parent.len() {
            return None; // defensive: malformed parent array
        }
    }
    path.reverse();
    Some(path)
}

/// Connected component containing `source`, restricted to `within` when given.
pub fn component_of(
    graph: &UnGraph,
    source: usize,
    within: Option<&BTreeSet<usize>>,
) -> BTreeSet<usize> {
    let res = bfs(graph, source, within);
    res.dist
        .iter()
        .enumerate()
        .filter(|(_, &d)| d != usize::MAX)
        .map(|(v, _)| v)
        .collect()
}

/// All connected components over the non-isolated nodes of the graph.
#[expect(
    clippy::indexing_slicing,
    reason = "`seen` spans the node count, and non-isolated nodes and their components are graph nodes"
)]
pub fn connected_components(graph: &UnGraph) -> Vec<BTreeSet<usize>> {
    let mut seen = vec![false; graph.node_count()];
    let mut components = Vec::new();
    for v in graph.non_isolated_nodes() {
        if seen[v] {
            continue;
        }
        let comp = component_of(graph, v, None);
        for &u in &comp {
            seen[u] = true;
        }
        components.push(comp);
    }
    components
}

/// True when every node of `targets` is reachable from the first target
/// inside the node set `within`.
pub fn all_connected(graph: &UnGraph, targets: &[usize], within: &BTreeSet<usize>) -> bool {
    match targets.first() {
        None => true,
        Some(&first) => {
            if targets.iter().any(|t| !within.contains(t)) {
                return false;
            }
            let comp = component_of(graph, first, Some(within));
            targets.iter().all(|t| comp.contains(t))
        }
    }
}

/// Hop diameter of the subgraph induced on `nodes` (0 for empty or singleton
/// sets, `usize::MAX` if the induced subgraph is disconnected).
#[expect(
    clippy::indexing_slicing,
    reason = "`nodes` holds node ids of the graph, and `dist` spans the node count"
)]
pub fn diameter(graph: &UnGraph, nodes: &BTreeSet<usize>) -> usize {
    let mut best = 0usize;
    for &v in nodes {
        let res = bfs(graph, v, Some(nodes));
        for &u in nodes {
            if res.dist[u] == usize::MAX {
                return usize::MAX;
            }
            best = best.max(res.dist[u]);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: usize) -> UnGraph {
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        UnGraph::from_edges(n, &edges).unwrap()
    }

    #[test]
    fn bfs_distances_on_path() {
        let g = path_graph(5);
        let res = bfs(&g, 0, None);
        assert_eq!(res.dist, vec![0, 1, 2, 3, 4]);
        let path = reconstruct_path(&res.parent, 0, 4).unwrap();
        assert_eq!(path, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn bfs_respects_restriction() {
        let g = path_graph(5);
        let within: BTreeSet<usize> = [0, 1, 3, 4].into_iter().collect();
        let res = bfs(&g, 0, Some(&within));
        assert_eq!(res.dist[1], 1);
        assert_eq!(res.dist[3], usize::MAX); // 2 is excluded, so 3 unreachable
    }

    #[test]
    fn reconstruct_path_unreachable_is_none() {
        let g = UnGraph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let res = bfs(&g, 0, None);
        assert!(reconstruct_path(&res.parent, 0, 3).is_none());
        assert_eq!(reconstruct_path(&res.parent, 0, 0), Some(vec![0]));
    }

    #[test]
    fn components_and_connectivity() {
        let g = UnGraph::from_edges(6, &[(0, 1), (1, 2), (3, 4)]).unwrap();
        let comps = connected_components(&g);
        assert_eq!(comps.len(), 2);
        let within: BTreeSet<usize> = (0..6).collect();
        assert!(all_connected(&g, &[0, 2], &within));
        assert!(!all_connected(&g, &[0, 3], &within));
        assert!(all_connected(&g, &[], &within));
    }

    #[test]
    fn diameter_of_path_and_disconnected() {
        let g = path_graph(4);
        let nodes: BTreeSet<usize> = (0..4).collect();
        assert_eq!(diameter(&g, &nodes), 3);
        let g2 = UnGraph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert_eq!(diameter(&g2, &nodes), usize::MAX);
    }
}
