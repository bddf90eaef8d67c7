//! Seeded input generation. Nothing here is timed: the serving stack only
//! ever sees the rows these functions produce.

use dataset::{
    AttributeSchema, BackboneKind, ClassAttributes, StreamWorkload, StreamWorkloadConfig,
    SyntheticBackbone,
};
use hdc_zsc::{ModelConfig, ZscModel};
use tensor::Matrix;

/// Width of the backbone feature rows (ResNet50 pooled features).
pub const FEATURE_DIM: usize = 2048;

/// At most this many classes get a backbone base row; query `i` jitters
/// base `i % bases`, so the set of rows a run needs stays small while no
/// two queries are identical.
const MAX_BASES: usize = 256;

/// Per-feature amplitude of the uniform per-query jitter.
const QUERY_JITTER: f32 = 0.05;

/// Weight of the class-aligned component of a query row; see
/// [`Inputs::generate`].
const ALIGNMENT: f32 = 1.0;

/// The paper's model configuration, seeded per run.
pub fn model_config(seed: u64) -> ModelConfig {
    ModelConfig {
        seed,
        ..ModelConfig::paper_default()
    }
}

/// Everything one run feeds the serving stack, as a pure function of the
/// class count and the seed.
#[derive(Debug)]
pub struct Inputs {
    pub seed: u64,
    pub schema: AttributeSchema,
    pub labels: Vec<String>,
    pub attributes: Matrix,
    bases: Vec<Vec<f32>>,
}

impl Inputs {
    /// Generates `classes` CUB-shaped class descriptions and the query base
    /// rows.
    ///
    /// A base row is `SyntheticBackbone::features` of a class plus
    /// `ALIGNMENT · W s`, where `W` is the model's 2048×1536 projection and
    /// `s` the class's ±1 signature. The benchmark serves an untrained
    /// encoder, which maps backbone rows to directions unrelated to the
    /// class signatures (top-1 is then noise, and routed recall@1 sits near
    /// the candidate share). The aligned term places each query's embedding
    /// near its own class, as a trained encoder would, so routing and
    /// recall behave as in deployment.
    pub fn generate(classes: usize, seed: u64) -> Self {
        let schema = AttributeSchema::cub200();
        let class_set = ClassAttributes::generate(&schema, classes, seed);
        let labels = class_set.names().to_vec();
        let attributes = class_set.matrix().clone();
        let model = ZscModel::new(&model_config(seed), &schema, FEATURE_DIM);
        let mut projection = None;
        model.visit_params_ref(&mut |p| {
            if projection.is_none() && p.values.rows() == FEATURE_DIM {
                projection = Some(p.values.clone());
            }
        });
        let projection = projection.expect("the paper model has a 2048-wide projection");
        let backbone = SyntheticBackbone::pretrain_with_dim(
            BackboneKind::ResNet50,
            schema.num_attributes(),
            FEATURE_DIM,
            seed ^ 0xbac4_b0e5,
        );
        let stride = classes.div_ceil(MAX_BASES).max(1);
        let picked: Vec<usize> = (0..classes).step_by(stride).collect();
        let signatures = model.attribute_encoder().infer_classes(&Matrix::from_rows(
            &picked
                .iter()
                .map(|&c| attributes.row(c).to_vec())
                .collect::<Vec<_>>(),
        ));
        let bases = picked
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                let mut row = backbone.features(attributes.row(c), seed.wrapping_add(c as u64));
                let signs: Vec<f32> = signatures
                    .row(i)
                    .iter()
                    .map(|&x| if x >= 0.0 { 1.0 } else { -1.0 })
                    .collect();
                for (j, x) in row.iter_mut().enumerate() {
                    let w = projection.row(j);
                    let dot: f32 = w.iter().zip(&signs).map(|(a, b)| a * b).sum();
                    *x += ALIGNMENT * dot;
                }
                row
            })
            .collect();
        Self {
            seed,
            schema,
            labels,
            attributes,
            bases,
        }
    }

    /// Query row `id`: base `id % bases` plus jitter seeded by `(seed, id)`.
    /// Pure in `id`, so verification regenerates exactly what was sent.
    pub fn query_row(&self, id: u64) -> Vec<f32> {
        let base = &self.bases[(id % self.bases.len() as u64) as usize];
        let mut state = self.seed ^ id.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x0071_e7e5;
        base.iter()
            .map(|&x| x + QUERY_JITTER * (2.0 * unit(&mut state) - 1.0))
            .collect()
    }

    /// Attribute row for the `n`-th `update_class` write: the class's own
    /// row with a seeded share of its attributes re-drawn.
    pub fn update_attributes(&self, class: usize, n: u64) -> Vec<f32> {
        let mut state = self.seed ^ n.wrapping_mul(0xd1b5_4a32_d192_ed03);
        self.attributes
            .row(class)
            .iter()
            .map(|&a| {
                if unit(&mut state) < 0.1 {
                    unit(&mut state)
                } else {
                    a
                }
            })
            .collect()
    }

    /// The labeled observation stream of the durable workload.
    pub fn stream(&self, examples: usize) -> StreamWorkload {
        StreamWorkload::generate(&StreamWorkloadConfig {
            classes: self.labels.len(),
            feature_dim: FEATURE_DIM,
            steps: examples.div_ceil(64),
            examples_per_step: 64,
            drift: 0.02,
            noise: 0.05,
            seed: self.seed ^ 0x57e1_a000,
        })
    }
}

/// SplitMix64 step mapped into `[0, 1)`.
fn unit(state: &mut u64) -> f32 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z >> 40) as f32 / (1u64 << 24) as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_rows_are_pure_and_distinct() {
        let inputs = Inputs::generate(8, 3);
        assert_eq!(inputs.query_row(5), inputs.query_row(5));
        assert_ne!(inputs.query_row(5), inputs.query_row(13));
        assert_eq!(inputs.query_row(0).len(), FEATURE_DIM);
    }
}
