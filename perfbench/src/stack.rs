//! The four workloads and the serving stack each one runs: a paper-shape
//! `FrozenModel`, a `QueryServer` (durable for `stream_durable`) and a
//! `NetServer` on 127.0.0.1.

use crate::inputs::{model_config, Inputs, FEATURE_DIM};
use engine::RoutedConfig;
use hdc_zsc::ZscModel;
use serve::net::ClientConfig;
use serve::{DurabilityConfig, NetClient, NetConfig, NetServer, QueryServer, ServerConfig};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Connections the load generator opens (the box has two cores).
pub const CONNECTIONS: u64 = 2;

/// Labels per answered query.
pub const TOP_K: usize = 5;

/// Streamed observations per publication (all workloads).
pub const PUBLISH_EVERY: u32 = 8;

#[derive(Debug)]
pub struct Spec {
    pub name: &'static str,
    pub classes: usize,
    /// `Some(nprobe)` serves through the routed index.
    pub nprobe: Option<usize>,
    /// Durable server with a closed-loop writer beside the readers.
    pub durable: bool,
    /// Open-loop offered query rate: about a fifth of the closed-loop
    /// capacity, so the queue stays bounded when the host runs slow.
    pub open_qps: f64,
}

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "paper_200",
        classes: 200,
        nprobe: None,
        durable: false,
        open_qps: 100.0,
    },
    Spec {
        name: "exact_20k",
        classes: 20_000,
        nprobe: None,
        durable: false,
        open_qps: 20.0,
    },
    Spec {
        name: "routed_20k",
        classes: 20_000,
        nprobe: Some(NPROBE),
        durable: false,
        open_qps: 50.0,
    },
    Spec {
        name: "stream_durable",
        classes: 200,
        nprobe: None,
        durable: true,
        open_qps: 50.0,
    },
];

/// Clusters `routed_20k` probes per query: about 6% of its classes.
pub const NPROBE: usize = 8;

/// The routing configuration of `routed_20k` (√n clusters, partial probe);
/// the per-layer sweep builds the same index on every workload.
pub fn routed_config(nprobe: usize) -> RoutedConfig {
    RoutedConfig {
        nprobe,
        ..RoutedConfig::default()
    }
}

pub fn server_config(spec: &Spec) -> ServerConfig {
    ServerConfig {
        top_k: TOP_K,
        routed: spec.nprobe.map(routed_config),
        publish_every: PUBLISH_EVERY,
        ..ServerConfig::default()
    }
}

pub fn durability(dir: &Path) -> DurabilityConfig {
    DurabilityConfig::new(dir)
}

/// A running server and its TCP front-end.
#[derive(Debug)]
pub struct Stack {
    pub server: Arc<QueryServer>,
    pub net: NetServer,
    /// WAL directory of a durable stack.
    pub dir: Option<PathBuf>,
}

impl Stack {
    /// Builds the whole stack from scratch. Returns it with its set-up
    /// time (model construction, class encoding plus k-means when routed
    /// plus the durable base write, server and listener start) and the
    /// part of it `QueryServer::start` took: rebuilding the serving state
    /// from the model and class set, which is how a non-durable server
    /// recovers.
    pub fn start(
        spec: &Spec,
        inputs: &Inputs,
        dir: &Path,
    ) -> Result<(Self, Duration, Duration), String> {
        if spec.durable {
            // Left over from an earlier set-up; not part of this one.
            let _ = std::fs::remove_dir_all(dir);
        }
        let start = Instant::now();
        let model = ZscModel::new(&model_config(inputs.seed), &inputs.schema, FEATURE_DIM);
        let config = server_config(spec);
        let server_start = Instant::now();
        let server = if spec.durable {
            QueryServer::start_durable(
                model,
                inputs.labels.clone(),
                &inputs.attributes,
                &inputs.schema,
                config,
                durability(dir),
            )
        } else {
            QueryServer::start(model, inputs.labels.clone(), &inputs.attributes, config)
        }
        .map_err(|e| format!("server start: {e}"))?;
        let rebuild = server_start.elapsed();
        let stack = Self::bind(Arc::new(server), inputs, spec.durable.then(|| dir.into()))?;
        Ok((stack, start.elapsed(), rebuild))
    }

    pub fn bind(
        server: Arc<QueryServer>,
        inputs: &Inputs,
        dir: Option<PathBuf>,
    ) -> Result<Self, String> {
        let net = NetServer::bind(
            "127.0.0.1:0",
            Arc::clone(&server),
            &inputs.schema,
            NetConfig::default(),
        )
        .map_err(|e| format!("listener bind: {e}"))?;
        Ok(Self { server, net, dir })
    }

    pub fn connect(&self) -> Result<NetClient, String> {
        NetClient::connect(self.net.local_addr(), ClientConfig::default())
            .map_err(|e| format!("connect: {e}"))
    }

    /// Drains the front-end, then the server.
    pub fn stop(&self) {
        self.net.shutdown();
        self.server.stop();
    }
}
