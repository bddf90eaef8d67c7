//! Parallel dense scoring for the float inference paths (ZSC class logits,
//! DAP cosine scores, ESZSL compatibility scores).
//!
//! Every function here splits the *query* operand into contiguous row chunks
//! and applies the exact same scalar kernels (`normalize_rows`, `matmul`,
//! `matmul_nt`) each chunk would see in the serial code. Row results never
//! depend on other rows, so the stitched output is **bit-identical** to the
//! serial result for every thread count — the inference rewiring in
//! `hdc_zsc` and `baselines` relies on this to keep accuracies unchanged to
//! the last bit.

use minipool::Pool;
use tensor::Matrix;

/// Minimum row norm treated as non-zero, matching both
/// `nn::CosineSimilarity` and `tensor::ops::cosine_similarity_matrix`.
pub const COSINE_EPS: f32 = 1e-12;

/// Applies `f` to contiguous row chunks of `a` and vertically stitches the
/// results in chunk order.
///
/// With a one-thread pool (or a matrix of fewer than two rows) this is
/// exactly `f(a)` with no copies.
///
/// # Panics
///
/// Panics if `f` returns chunks of differing widths.
fn rowwise_map<F>(a: &Matrix, pool: &Pool, f: F) -> Matrix
where
    F: Fn(&Matrix) -> Matrix + Sync,
{
    if pool.threads() == 1 || a.rows() < 2 {
        return f(a);
    }
    let cols = a.cols();
    let blocks = pool.map_chunks(a.rows(), |range| {
        let chunk = Matrix::from_vec(
            range.len(),
            cols,
            a.as_slice()[range.start * cols..range.end * cols].to_vec(),
        );
        f(&chunk)
    });
    let refs: Vec<&Matrix> = blocks.iter().collect();
    Matrix::vstack(&refs)
}

/// The `B×C` cosine-similarity matrix between the rows of `queries` (`B×d`)
/// and the rows of `prototypes` (`C×d`), computed in parallel over query
/// rows.
///
/// Bit-identical to `tensor::ops::cosine_similarity_matrix` and to the
/// inference (`train = false`) output of `nn::CosineSimilarity::forward`.
///
/// # Panics
///
/// Panics if the embedding widths differ.
pub fn cosine_scores(queries: &Matrix, prototypes: &Matrix, pool: &Pool) -> Matrix {
    assert_eq!(
        queries.cols(),
        prototypes.cols(),
        "cosine scoring requires equal embedding dims ({} vs {})",
        queries.cols(),
        prototypes.cols()
    );
    let normalized_prototypes = prototypes.normalize_rows(COSINE_EPS);
    rowwise_map(queries, pool, |chunk| {
        chunk
            .normalize_rows(COSINE_EPS)
            .matmul_nt(&normalized_prototypes)
    })
}

/// Linear scores `X·W` (`B×α`), computed in parallel over the rows of
/// `features`; bit-identical to `features.matmul(weights)`.
///
/// # Panics
///
/// Panics if `features.cols() != weights.rows()`.
pub fn linear_scores(features: &Matrix, weights: &Matrix, pool: &Pool) -> Matrix {
    rowwise_map(features, pool, |chunk| chunk.matmul(weights))
}

/// How a [`DenseClassMemory`] relates a query row to a prototype row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DenseMetric {
    /// Cosine similarity — bit-identical to [`cosine_scores`] (and therefore
    /// to `tensor::ops::cosine_similarity_matrix`). The path the ZSC model's
    /// logits and the DAP baseline's class scores run through.
    Cosine,
    /// Raw dot product `q · s` — the second stage of a bilinear
    /// compatibility `x·V·sᵀ` once the query has been projected by `V`
    /// (the ESZSL decision rule).
    Dot,
}

/// The float backend of the unified [`Scorer`](crate::Scorer) contract: one
/// labelled prototype row per class, scored densely (cosine or dot) with
/// the row-parallel kernels above — bit-identical to the serial code for
/// every thread count.
///
/// Unlike the packed/sharded memories this backend is **immutable**: it is
/// the fitted-artifact view of a float class matrix (ZSC class embeddings,
/// DAP/ESZSL signature matrices), built once per class set.
///
/// # Example
///
/// ```
/// use engine::{DenseClassMemory, Scorer};
/// use tensor::Matrix;
///
/// let prototypes = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]);
/// let memory = DenseClassMemory::cosine(["x", "y"], prototypes);
/// let (label, sim) = memory.nearest(&[0.9, 0.1]).expect("non-empty");
/// assert_eq!(label, "x");
/// assert!(sim > 0.9);
/// assert_eq!(memory.top_k(&[1.0, 0.0], 5).len(), 2); // min(k, stored)
/// ```
#[derive(Debug, Clone)]
pub struct DenseClassMemory {
    labels: Vec<String>,
    prototypes: Matrix,
    /// Pre-normalised prototype rows for the cosine metric (`None` for dot).
    normalized: Option<Matrix>,
    metric: DenseMetric,
    pool: Pool,
}

impl DenseClassMemory {
    /// Builds a cosine-metric memory from one labelled prototype row per
    /// class.
    ///
    /// # Panics
    ///
    /// Panics if the label count differs from the row count or the matrix
    /// has zero columns.
    pub fn cosine<L, S>(labels: L, prototypes: Matrix) -> Self
    where
        L: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Self::with_metric(labels, prototypes, DenseMetric::Cosine)
    }

    /// Builds a dot-product-metric memory from one labelled prototype row
    /// per class; see [`DenseMetric::Dot`].
    ///
    /// # Panics
    ///
    /// Panics if the label count differs from the row count or the matrix
    /// has zero columns.
    pub fn dot<L, S>(labels: L, prototypes: Matrix) -> Self
    where
        L: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Self::with_metric(labels, prototypes, DenseMetric::Dot)
    }

    /// Builds a memory with an explicit metric.
    ///
    /// # Panics
    ///
    /// Panics if the label count differs from the row count or the matrix
    /// has zero columns.
    pub fn with_metric<L, S>(labels: L, prototypes: Matrix, metric: DenseMetric) -> Self
    where
        L: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let labels: Vec<String> = labels.into_iter().map(Into::into).collect();
        assert_eq!(
            labels.len(),
            prototypes.rows(),
            "one label per prototype row required"
        );
        assert!(prototypes.cols() > 0, "prototype rows must be non-empty");
        let normalized = match metric {
            DenseMetric::Cosine => Some(prototypes.normalize_rows(COSINE_EPS)),
            DenseMetric::Dot => None,
        };
        Self {
            labels,
            prototypes,
            normalized,
            metric,
            pool: Pool::auto(),
        }
    }

    /// Builds an unlabelled memory whose classes are named by their
    /// zero-padded row index (`class000`, `class001`, …) — padding keeps the
    /// lexicographic label tie-break aligned with row order, so index-based
    /// callers (the baselines' `argmax` predictors) and label-based callers
    /// agree on every tie.
    ///
    /// # Panics
    ///
    /// Panics if the matrix has zero columns.
    pub fn indexed(prototypes: Matrix, metric: DenseMetric) -> Self {
        let width = prototypes.rows().saturating_sub(1).max(1).ilog10() as usize + 1;
        let labels: Vec<String> = (0..prototypes.rows())
            .map(|r| format!("class{r:0width$}"))
            .collect();
        Self::with_metric(labels, prototypes, metric)
    }

    /// Caps the row-parallel scoring fan-out at `threads` threads (clamped
    /// to at least 1). Results are bit-identical for every setting.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.pool = Pool::new(threads);
        self
    }

    /// The scoring metric.
    pub fn metric(&self) -> DenseMetric {
        self.metric
    }

    /// The stored labels in insertion (row) order.
    pub fn labels(&self) -> impl Iterator<Item = &str> {
        self.labels.iter().map(String::as_str)
    }

    /// The raw prototype matrix (one class per row).
    pub fn prototypes(&self) -> &Matrix {
        &self.prototypes
    }

    /// One-vs-all similarities of a single query row, in stored order.
    fn score_row(&self, query: &[f32]) -> Vec<f32> {
        let query = Matrix::from_vec(1, query.len(), query.to_vec());
        crate::Scorer::score_batch(self, &query).as_slice().to_vec()
    }

    /// The single best candidate under the contract order (similarity
    /// descending, label-ascending ties) in one `O(classes)` scan — the
    /// top-1 fast path behind `nearest`/`nearest_batch`, matching
    /// [`DenseClassMemory::ranked`]'s first entry exactly.
    fn best_of(&self, scores: &[f32]) -> Option<(&str, f32)> {
        let mut best: Option<(usize, f32)> = None;
        for (index, &sim) in scores.iter().enumerate() {
            let better = match best {
                None => true,
                Some((best_index, best_sim)) => {
                    sim > best_sim
                        || (sim == best_sim && self.labels[index] < self.labels[best_index])
                }
            };
            if better {
                best = Some((index, sim));
            }
        }
        best.map(|(index, sim)| (self.labels[index].as_str(), sim))
    }

    /// Orders `(index, similarity)` candidates by similarity descending with
    /// the label-ascending tie-break, truncated to `min(k, stored)`.
    fn ranked(&self, scores: Vec<f32>, k: usize) -> Vec<(&str, f32)> {
        let mut scored: Vec<(usize, f32)> = scores.into_iter().enumerate().collect();
        scored.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("similarities are finite")
                .then_with(|| self.labels[a.0].cmp(&self.labels[b.0]))
        });
        scored.truncate(k);
        scored
            .into_iter()
            .map(|(index, sim)| (self.labels[index].as_str(), sim))
            .collect()
    }
}

/// The dense float backend of the unified [`Scorer`](crate::Scorer)
/// contract: queries are `f32` rows, batches are [`Matrix`]es with one query
/// per row.
impl crate::Scorer for DenseClassMemory {
    type Query = [f32];
    type Batch = Matrix;

    fn dim(&self) -> usize {
        self.prototypes.cols()
    }

    fn num_classes(&self) -> usize {
        self.labels.len()
    }

    fn score_batch(&self, batch: &Matrix) -> Matrix {
        assert_eq!(
            batch.cols(),
            self.prototypes.cols(),
            "query batch dimensionality must match the class memory"
        );
        match (self.metric, &self.normalized) {
            (DenseMetric::Cosine, Some(normalized)) => rowwise_map(batch, &self.pool, |chunk| {
                chunk.normalize_rows(COSINE_EPS).matmul_nt(normalized)
            }),
            _ => rowwise_map(batch, &self.pool, |chunk| chunk.matmul_nt(&self.prototypes)),
        }
    }

    fn nearest(&self, query: &[f32]) -> Option<(&str, f32)> {
        let scores = self.score_row(query);
        self.best_of(&scores)
    }

    fn top_k(&self, query: &[f32], k: usize) -> Vec<(&str, f32)> {
        self.ranked(self.score_row(query), k)
    }

    fn nearest_batch(&self, batch: &Matrix) -> Vec<(&str, f32)> {
        assert!(
            batch.rows() == 0 || !self.labels.is_empty(),
            "nearest_batch requires a non-empty class memory"
        );
        let scores = crate::Scorer::score_batch(self, batch);
        (0..batch.rows())
            .map(|q| {
                self.best_of(scores.row(q))
                    .expect("non-empty memory checked above")
            })
            .collect()
    }

    fn topk_batch(&self, batch: &Matrix, k: usize) -> Vec<Vec<(&str, f32)>> {
        let scores = crate::Scorer::score_batch(self, batch);
        (0..batch.rows())
            .map(|q| self.ranked(scores.row(q).to_vec(), k))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scorer;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tensor::ops::cosine_similarity_matrix;

    #[test]
    fn cosine_scores_bit_identical_to_serial_reference() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Matrix::random_uniform(23, 17, 1.0, &mut rng);
        let b = Matrix::random_uniform(9, 17, 1.0, &mut rng);
        let reference = cosine_similarity_matrix(&a, &b);
        for threads in [1usize, 2, 5, 16] {
            let scores = cosine_scores(&a, &b, &Pool::new(threads));
            assert_eq!(scores.as_slice(), reference.as_slice(), "threads={threads}");
        }
    }

    #[test]
    fn linear_scores_bit_identical_to_serial_reference() {
        let mut rng = StdRng::seed_from_u64(3);
        let x = Matrix::random_uniform(11, 6, 1.0, &mut rng);
        let w = Matrix::random_uniform(6, 13, 1.0, &mut rng);
        let reference = x.matmul(&w);
        for threads in [1usize, 4] {
            let scores = linear_scores(&x, &w, &Pool::new(threads));
            assert_eq!(scores.as_slice(), reference.as_slice(), "threads={threads}");
        }
    }

    #[test]
    fn rowwise_map_handles_single_row_and_zero_norm() {
        let a = Matrix::from_rows(&[vec![0.0, 0.0]]);
        let b = Matrix::from_rows(&[vec![1.0, 1.0]]);
        let scores = cosine_scores(&a, &b, &Pool::new(8));
        assert_eq!(scores.get(0, 0), 0.0);
    }

    #[test]
    fn dense_memory_cosine_scores_bit_identical_to_reference() {
        let mut rng = StdRng::seed_from_u64(4);
        let prototypes = Matrix::random_uniform(7, 12, 1.0, &mut rng);
        let queries = Matrix::random_uniform(9, 12, 1.0, &mut rng);
        let reference = cosine_similarity_matrix(&queries, &prototypes);
        for threads in [1usize, 3, 8] {
            let memory = DenseClassMemory::indexed(prototypes.clone(), DenseMetric::Cosine)
                .with_threads(threads);
            assert_eq!(memory.num_classes(), 7);
            assert_eq!(Scorer::dim(&memory), 12);
            let scores = memory.score_batch(&queries);
            assert_eq!(scores.as_slice(), reference.as_slice(), "threads={threads}");
        }
    }

    #[test]
    fn dense_memory_dot_matches_matmul_nt() {
        let mut rng = StdRng::seed_from_u64(5);
        let prototypes = Matrix::random_uniform(5, 8, 1.0, &mut rng);
        let queries = Matrix::random_uniform(6, 8, 1.0, &mut rng);
        let memory = DenseClassMemory::dot((0..5).map(|c| format!("c{c}")), prototypes.clone());
        assert_eq!(memory.metric(), DenseMetric::Dot);
        let reference = queries.matmul_nt(&prototypes);
        assert_eq!(
            memory.score_batch(&queries).as_slice(),
            reference.as_slice()
        );
    }

    #[test]
    fn dense_memory_lookups_obey_truncation_and_tie_break() {
        // Two identical prototypes inserted in reverse label order: ties must
        // resolve to the lexicographically smallest label.
        let prototypes = Matrix::from_rows(&[vec![1.0, 0.0], vec![1.0, 0.0], vec![0.0, 1.0]]);
        let memory = DenseClassMemory::cosine(["zeta", "alpha", "other"], prototypes);
        let (label, sim) = memory.nearest(&[1.0, 0.0]).expect("non-empty");
        assert_eq!(label, "alpha");
        assert!((sim - 1.0).abs() < 1e-6);
        let top = memory.top_k(&[1.0, 0.0], 10);
        assert_eq!(top.len(), 3, "min(k, stored) truncation");
        assert_eq!(top[0].0, "alpha");
        assert_eq!(top[1].0, "zeta");
        assert!(memory.top_k(&[1.0, 0.0], 0).is_empty());
        // Batch lookups agree with per-query lookups.
        let batch = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 2.0]]);
        let nearest = memory.nearest_batch(&batch);
        assert_eq!(nearest[0].0, "alpha");
        assert_eq!(nearest[1].0, "other");
        let topk = memory.topk_batch(&batch, 2);
        assert_eq!(topk[0], memory.top_k(batch.row(0), 2));
        assert_eq!(topk[1], memory.top_k(batch.row(1), 2));
    }

    #[test]
    fn indexed_labels_are_zero_padded_to_preserve_row_order_on_ties() {
        let prototypes = Matrix::from_rows(&(0..11).map(|_| vec![1.0, 1.0]).collect::<Vec<_>>());
        let memory = DenseClassMemory::indexed(prototypes, DenseMetric::Cosine);
        let labels: Vec<&str> = memory.labels().collect();
        assert_eq!(labels[0], "class00");
        assert_eq!(labels[10], "class10");
        // All prototypes identical: top-k order is exactly row order.
        let top: Vec<&str> = memory
            .top_k(&[1.0, 1.0], 11)
            .into_iter()
            .map(|(l, _)| l)
            .collect();
        assert_eq!(top, labels);
    }
}
