//! # fc-core — the Femto-Containers middleware
//!
//! The paper's primary contribution (Zandberg et al., MIDDLEWARE 2022):
//! a hosting engine that deploys, executes and isolates small virtual
//! software functions on a low-power RTOS.
//!
//! * [`engine`] — install / attach / execute containers with memory
//!   allow-lists, finite-execution budgets and per-instance accounting;
//! * [`hooks`] — the launchpad pads compiled into the firmware;
//! * [`contract`] — request ∩ offer permission grants (§11);
//! * [`helpers_impl`] — the system-call bridge into stores, sensors,
//!   time and CoAP formatting (§7);
//! * [`apps`] — the paper's §8 prototype applications in eBPF assembly;
//! * [`deploy`] — SUIT-manifest-driven secure updates over CoAP (§5);
//! * [`integration`] — wiring hooks into the RTOS kernel (Figure 3);
//! * [`footprint`] — the flash/RAM models behind Tables 1 & 3 and
//!   Figures 2 & 7.
//!
//! ## Shared vs per-shard state (the `fc-host` concurrency boundary)
//!
//! The concurrent hosting runtime (`fc-host`) runs **N sibling
//! engines** — one per worker thread — built over one
//! [`helpers_impl::HostEnv`] via [`engine::HostingEngine::with_env`].
//! The split of state is deliberate and load-bearing:
//!
//! * **Shared, thread-safe** (`Arc<HostEnv>`): the key-value stores
//!   (global scope is the sanctioned cross-container channel, so it
//!   must stay coherent across shards — it sits behind
//!   [`fc_kvstore::ShardedStores`]' sharded locks), the SAUL sensor
//!   registry, the console, the virtual clock and the RNG (atomics).
//! * **Per shard, unlocked**: everything execution-hot — container
//!   slots, lowered programs, helper registries (whose closures are
//!   `Send` and capture the env through `Arc`), execution arenas with
//!   their buffer pools, and each slot's [`helpers_impl::HelperMeter`]
//!   for helper-cycle accounting.
//!
//! A [`engine::ContainerSlot`] is `Send` and migrates between sibling
//! engines via [`engine::HostingEngine::eject`] /
//! [`engine::HostingEngine::adopt`]; `install_with_id` lets a
//! multi-engine host assign globally unique container ids.
//!
//! ## Quick start
//!
//! ```
//! use fc_core::contract::ContractRequest;
//! use fc_core::engine::HostingEngine;
//! use fc_rbpf::program::ProgramBuilder;
//! use fc_rtos::platform::{Engine, Platform};
//!
//! let mut engine = HostingEngine::new(Platform::CortexM4, Engine::FemtoContainer);
//! let app = ProgramBuilder::new().asm("mov r0, 40\nadd r0, 2\nexit")?.build();
//! let id = engine.install("answer", 1, &app.to_bytes(), ContractRequest::default())?;
//! assert_eq!(engine.execute(id, &[], &[])?.result, Ok(42));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod apps;
pub mod contract;
pub mod deploy;
pub mod engine;
pub mod footprint;
pub mod helpers_impl;
pub mod hooks;
pub mod integration;

pub use contract::{Contract, ContractOffer, ContractRequest};
pub use engine::{
    ContainerId, EngineError, ExecutionReport, HookReport, HostRegion, HostingEngine,
};
pub use hooks::{Hook, HookKind, HookPolicy};
