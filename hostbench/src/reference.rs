//! Reference shortest paths, written here and not taken from `son_topo`,
//! so the checks that use them do not trust the code under test.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// An undirected graph as a plain edge list: `(a, b, weight)`.
#[derive(Debug, Clone)]
pub struct RefGraph {
    pub nodes: usize,
    pub edges: Vec<(usize, usize, f64)>,
}

impl RefGraph {
    /// Shortest-path distances from `src` over the edges `usable` keeps;
    /// `f64::INFINITY` for nodes it cannot reach.
    pub fn distances(&self, src: usize, usable: impl Fn(usize) -> bool) -> Vec<f64> {
        let mut adj = vec![Vec::new(); self.nodes];
        for (i, &(a, b, w)) in self.edges.iter().enumerate() {
            if usable(i) {
                adj[a].push((b, w));
                adj[b].push((a, w));
            }
        }
        let mut dist = vec![f64::INFINITY; self.nodes];
        let mut done = vec![false; self.nodes];
        let mut heap = BinaryHeap::new();
        dist[src] = 0.0;
        // Non-negative weights ordered by their bit patterns, which sort
        // like the values themselves.
        heap.push(Reverse((0.0f64.to_bits(), src)));
        while let Some(Reverse((d_bits, u))) = heap.pop() {
            if done[u] {
                continue;
            }
            done[u] = true;
            let d = f64::from_bits(d_bits);
            for &(v, w) in &adj[u] {
                let nd = d + w;
                if nd < dist[v] {
                    dist[v] = nd;
                    heap.push(Reverse((nd.to_bits(), v)));
                }
            }
        }
        dist
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A square 0-1-2-3-0 with one diagonal 0-2:
    ///
    /// ```text
    ///   0 --1.0-- 1
    ///   | \       |
    ///  4.0  2.5  1.0
    ///   |     \   |
    ///   3 --1.0-- 2
    /// ```
    fn square() -> RefGraph {
        RefGraph {
            nodes: 4,
            edges: vec![
                (0, 1, 1.0),
                (1, 2, 1.0),
                (2, 3, 1.0),
                (3, 0, 4.0),
                (0, 2, 2.5),
            ],
        }
    }

    #[test]
    fn square_distances_by_hand() {
        // 0->1 direct 1; 0->2 via 1 is 2 (beats the 2.5 diagonal);
        // 0->3 via 1,2 is 3 (beats the direct 4).
        assert_eq!(square().distances(0, |_| true), vec![0.0, 1.0, 2.0, 3.0]);
        // From 3: 3->2 is 1, 3->1 is 2, 3->0 is min(4, 1+2.5, 1+1+1) = 3.
        assert_eq!(square().distances(3, |_| true), vec![3.0, 2.0, 1.0, 0.0]);
    }

    #[test]
    fn removed_edges_reroute_or_disconnect() {
        let g = square();
        // Without 1-2 (edge 1): 0->2 takes the diagonal, 0->3 via 2 is 3.5.
        assert_eq!(g.distances(0, |e| e != 1), vec![0.0, 1.0, 2.5, 3.5]);
        // Without 0-1 and 1-2 node 1 is cut off; 2 is the diagonal away
        // and 3 one more hop (3.5 beats the direct 4).
        let d = g.distances(0, |e| e > 1);
        assert!(d[1].is_infinite());
        assert_eq!(&d[2..], &[2.5, 3.5]);
    }

    #[test]
    fn ring_distance_goes_the_short_way() {
        let ring = RefGraph {
            nodes: 6,
            edges: (0..6).map(|i| (i, (i + 1) % 6, 10.0)).collect(),
        };
        assert_eq!(
            ring.distances(0, |_| true),
            vec![0.0, 10.0, 20.0, 30.0, 20.0, 10.0]
        );
        // Cut 0-1: node 1 is now five hops away.
        assert_eq!(ring.distances(0, |e| e != 0)[1], 50.0);
    }
}
