//! The hosted functions and the seeded inputs they serve.
//!
//! Every workload runs eight tenants, one CoAP hook and one responder
//! each. The seed reaches only this module's generator (tenant sensor
//! values, request schedule) and the fleet's link RNGs; the program
//! receives the generated inputs.

use fc_core::contract::ContractRequest;
use fc_core::helpers_impl::helper_name_table;
use fc_net::coap::{Code, Message};
use fc_net::load::{CoapLoadGen, LoadShape};
use fc_rbpf::helpers::ids;
use fc_rbpf::program::{FcProgram, ProgramBuilder};

/// Tenants (hooks) per workload.
pub const TENANTS: u32 = 8;
/// Requests per closed-loop burst on the host workloads.
pub const BURST: usize = 16;
/// Bursts in one pass of the request schedule.
pub const SCHEDULE_BURSTS: usize = 256;
/// Response packet buffer per request.
pub const PKT_LEN: usize = 64;
/// Tenant-scope kv key holding each tenant's sensor value.
pub const VALUE_KEY: u32 = 1;
/// Container-local kv key of the durable responder's request counter.
pub const COUNTER_KEY: u32 = 2;
/// Sensor full scale: responders clamp readings above it.
pub const FULL_SCALE: u64 = 50_000;
/// Minimum iterations of the compute kernel; the sensor value's low
/// seven bits add up to 127 more.
pub const KERNEL_BASE: u64 = 2_000;

/// Which responder the tenants run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Responder {
    /// Fetch the value, clamp it, format a 2.05 reply.
    Tiny,
    /// As `Tiny`, after a value-dependent mixing kernel.
    Compute,
    /// As `Tiny`, plus a container-local request counter write.
    Counter,
}

const FETCH: &str = "\
    mov r6, r1             ; keep coap ctx
    mov r1, 1              ; VALUE_KEY
    mov r2, r10
    add r2, -8
    call bpf_fetch_shared
    ldxw r7, [r10-8]       ; sensor value
";

const CLAMP: &str = "\
    jlt r7, 50000, scaled  ; clamp to FULL_SCALE
    mov r7, 50000
scaled:
";

const KERNEL: &str = "\
    mov r8, r7
    and r8, 127
    add r8, 2000           ; KERNEL_BASE + (value & 127) rounds
mix:
    mul r7, 33
    add r7, 7
    xor r7, r8
    sub r8, 1
    jne r8, 0, mix
    and r7, 0xffff
";

const COUNT: &str = "\
    mov r1, 2              ; COUNTER_KEY
    mov r2, r10
    add r2, -16
    call bpf_fetch_local
    ldxw r2, [r10-16]
    add r2, 1
    mov r1, 2
    call bpf_store_local
";

const REPLY: &str = "\
    mov r1, r6
    mov r2, 0x45           ; 2.05 Content
    call bpf_gcoap_resp_init
    mov r1, r6
    mov r2, 0              ; text/plain
    call bpf_coap_add_format
    mov r1, r6
    call bpf_coap_opt_finish
    mov r8, r0             ; payload offset
    ldxdw r1, [r6]         ; pkt buffer address
    add r1, r8
    mov r2, r7
    call bpf_fmt_u32_dec
    add r0, r8             ; total PDU length
    exit
";

impl Responder {
    /// Assembly source.
    pub fn source(self) -> String {
        match self {
            Responder::Tiny => [FETCH, CLAMP, REPLY].concat(),
            Responder::Compute => [FETCH, KERNEL, REPLY].concat(),
            Responder::Counter => [FETCH, CLAMP, COUNT, REPLY].concat(),
        }
    }

    /// The assembled program.
    pub fn program(self) -> FcProgram {
        ProgramBuilder::new()
            .helpers(helper_name_table().iter().map(|(n, i)| (n.as_str(), *i)))
            .asm(&self.source())
            .expect("responder assembles")
            .build()
    }

    /// The helper contract it requests.
    pub fn request(self) -> ContractRequest {
        let mut helpers = vec![
            ids::BPF_FETCH_SHARED,
            ids::BPF_GCOAP_RESP_INIT,
            ids::BPF_COAP_ADD_FORMAT,
            ids::BPF_COAP_OPT_FINISH,
            ids::BPF_FMT_U32_DEC,
        ];
        if self == Responder::Counter {
            helpers.extend([ids::BPF_FETCH_LOCAL, ids::BPF_STORE_LOCAL]);
        }
        ContractRequest::helpers(helpers)
    }

    /// The reply payload a correct run formats for a sensor value.
    pub fn expected_payload(self, value: u64) -> Vec<u8> {
        let out = match self {
            Responder::Tiny | Responder::Counter => value.min(FULL_SCALE),
            Responder::Compute => {
                let mut r7 = value;
                let mut r8 = (value & 127) + KERNEL_BASE;
                while r8 != 0 {
                    r7 = r7.wrapping_mul(33).wrapping_add(7) ^ r8;
                    r8 -= 1;
                }
                r7 & 0xffff
            }
        };
        out.to_string().into_bytes()
    }
}

/// splitmix64: derives independent streams from the one seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Resource path of tenant `t`.
pub fn path(t: u32) -> String {
    format!("t{t}/temp")
}

/// Each tenant's sensor value for `seed`, in `0..100_000`.
pub fn tenant_values(seed: u64) -> Vec<u64> {
    (0..TENANTS)
        .map(|t| mix(seed, u64::from(t)) % 100_000)
        .collect()
}

/// How a schedule spreads its requests over the tenants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Every request draws its tenant under the load shape.
    PerRequest(LoadShape),
    /// Every burst draws one tenant uniformly; all its requests go to
    /// that tenant, so one worker serves the whole burst.
    PerBurst,
}

/// The seeded inputs of one run.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Sensor value per tenant, in `0..100_000`.
    pub values: Vec<u64>,
    /// One schedule pass: the tenant each request targets, in send
    /// order (parallel to `requests`).
    pub tenants: Vec<u32>,
    /// One schedule pass of GET requests.
    pub requests: Vec<Message>,
}

impl Inputs {
    /// Generates the inputs for `seed`: tenant values, then a schedule
    /// of [`SCHEDULE_BURSTS`] × [`BURST`] GETs spread by `spread`.
    pub fn generate(seed: u64, spread: Mix) -> Self {
        let values = tenant_values(seed);
        let paths: Vec<String> = (0..TENANTS).map(path).collect();
        let shape = match spread {
            Mix::PerRequest(shape) => shape,
            Mix::PerBurst => LoadShape::Uniform,
        };
        let mut gen = CoapLoadGen::new(paths.clone(), mix(seed, 0x5c4e_d01e), shape);
        let mut draw = || {
            let (p, req) = gen.next_request();
            let t = paths.iter().position(|q| *q == p).expect("generated path") as u32;
            (t, req)
        };
        let (tenants, requests) = match spread {
            Mix::PerRequest(_) => (0..SCHEDULE_BURSTS * BURST).map(|_| draw()).unzip(),
            Mix::PerBurst => (0..SCHEDULE_BURSTS)
                .flat_map(|b| {
                    let (t, _) = draw();
                    (0..BURST).map(move |i| {
                        let n = (b * BURST + i) as u32;
                        let mut req = Message::request(Code::Get, n as u16, &n.to_le_bytes());
                        req.set_path(&path(t));
                        (t, req)
                    })
                })
                .unzip(),
        };
        Inputs {
            values,
            tenants,
            requests,
        }
    }

    /// Burst `b` of the (wrapping) schedule: its tenants and requests.
    pub fn burst(&self, b: u64) -> (&[u32], &[Message]) {
        let start = (b as usize % SCHEDULE_BURSTS) * BURST;
        let range = start..start + BURST;
        (&self.tenants[range.clone()], &self.requests[range])
    }

    /// Requests per tenant in bursts `0..bursts` of the (wrapping)
    /// schedule.
    pub fn per_tenant(&self, bursts: u64) -> Vec<u64> {
        let mut once = vec![0u64; TENANTS as usize];
        for t in &self.tenants {
            once[*t as usize] += 1;
        }
        let full = bursts / SCHEDULE_BURSTS as u64;
        let mut out: Vec<u64> = once.iter().map(|n| n * full).collect();
        for b in 0..bursts % SCHEDULE_BURSTS as u64 {
            for t in self.burst(b).0 {
                out[*t as usize] += 1;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_core::contract::ContractOffer;
    use fc_core::engine::{HostRegion, HostingEngine};
    use fc_core::helpers_impl::{coap_ctx_bytes, standard_helper_ids};
    use fc_core::hooks::{Hook, HookKind, HookPolicy};
    use fc_host::coap::response_pdu;
    use fc_kvstore::Scope;
    use fc_rtos::platform::{Engine, Platform};

    #[test]
    fn inputs_repeat_per_seed_and_differ_across_seeds() {
        let a = Inputs::generate(7, Mix::PerRequest(LoadShape::Uniform));
        let b = Inputs::generate(7, Mix::PerRequest(LoadShape::Uniform));
        let c = Inputs::generate(8, Mix::PerRequest(LoadShape::Uniform));
        assert_eq!(a.values, b.values);
        assert_eq!(a.tenants, b.tenants);
        assert_eq!(a.requests, b.requests);
        assert_ne!(a.values, c.values);
        let counts = a.per_tenant(SCHEDULE_BURSTS as u64 * 2 + 3);
        assert_eq!(
            counts.iter().sum::<u64>(),
            (SCHEDULE_BURSTS as u64 * 2 + 3) * BURST as u64
        );
        let p = Inputs::generate(7, Mix::PerBurst);
        for b in 0..SCHEDULE_BURSTS as u64 {
            let (tenants, requests) = p.burst(b);
            assert!(tenants.iter().all(|t| *t == tenants[0]));
            assert!(requests.iter().all(|r| r.path() == path(tenants[0])));
        }
        assert!((0..TENANTS).all(|t| p.tenants.contains(&t)));
    }

    /// Each responder, run by the engine, formats exactly the payload
    /// the benchmark's checker expects.
    #[test]
    fn responders_format_the_expected_payload() {
        for responder in [Responder::Tiny, Responder::Compute, Responder::Counter] {
            for value in [0u64, 1234, 49_999, 50_000, 50_001, 99_999] {
                let mut engine = HostingEngine::new(Platform::CortexM4, Engine::FemtoContainer);
                let hook = Hook::new("h", HookKind::CoapRequest, HookPolicy::First);
                let hook_id = hook.id;
                engine.register_hook(hook, ContractOffer::helpers(standard_helper_ids()));
                engine
                    .env()
                    .stores()
                    .store(0, 3, Scope::Tenant, VALUE_KEY, value as i64)
                    .unwrap();
                let c = engine
                    .install("r", 3, &responder.program().to_bytes(), responder.request())
                    .unwrap();
                engine.attach(c, hook_id).unwrap();
                let ctx = coap_ctx_bytes(PKT_LEN as u32);
                let pkt = HostRegion::read_write("pkt", vec![0; PKT_LEN]);
                let report = engine.fire_hook(hook_id, &ctx, &[pkt]).unwrap();
                let msg = Message::decode(&response_pdu(&report)).unwrap();
                assert_eq!(msg.payload, responder.expected_payload(value));
            }
        }
    }
}
