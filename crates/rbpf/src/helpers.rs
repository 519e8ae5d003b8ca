//! The system-call (helper) interface between a container and its host
//! (paper §7, "Simple Containerization").
//!
//! Access from the Femto-Container to OS facilities goes exclusively
//! through helpers invoked with the eBPF `call` instruction. The hosting
//! engine registers a closure per helper id; the verifier receives the set
//! of *granted* ids (the contract intersection, paper §11), so a container
//! calling an unauthorised helper is rejected before it ever runs.

use std::collections::{HashMap, HashSet};

use crate::error::VmError;
use crate::mem::MemoryMap;

/// Helper ids follow the RIOT Femto-Container numbering convention.
pub mod ids {
    /// Print a NUL-terminated format string (diagnostics).
    pub const BPF_PRINTF: u32 = 0x01;
    /// Debug-print a single value.
    pub const BPF_PRINT_NUM: u32 = 0x02;
    /// Copy bytes between granted regions.
    pub const BPF_MEMCPY: u32 = 0x02 + 0x11;
    /// Fetch from the container-local store: `r1`=key, `r2`=value ptr.
    pub const BPF_FETCH_LOCAL: u32 = 0x10;
    /// Store to the container-local store: `r1`=key, `r2`=value.
    pub const BPF_STORE_LOCAL: u32 = 0x11;
    /// Fetch from the global store.
    pub const BPF_FETCH_GLOBAL: u32 = 0x12;
    /// Store to the global store.
    pub const BPF_STORE_GLOBAL: u32 = 0x14;
    /// Fetch from the tenant-shared store.
    pub const BPF_FETCH_SHARED: u32 = 0x15;
    /// Store to the tenant-shared store.
    pub const BPF_STORE_SHARED: u32 = 0x16;
    /// Current virtual time in microseconds.
    pub const BPF_NOW_MS: u32 = 0x20;
    /// Read a SAUL sensor: `r1`=device index, `r2`=out ptr.
    pub const BPF_SAUL_READ: u32 = 0x31;
    /// Find a SAUL device by registry index.
    pub const BPF_SAUL_FIND_NTH: u32 = 0x32;
    /// Initialise a CoAP response in the packet buffer.
    pub const BPF_GCOAP_RESP_INIT: u32 = 0x40;
    /// Append a Content-Format option.
    pub const BPF_COAP_ADD_FORMAT: u32 = 0x41;
    /// Finish CoAP options, returning the payload offset.
    pub const BPF_COAP_OPT_FINISH: u32 = 0x42;
    /// Format a signed 16.16 fixed-point decimal into a buffer.
    pub const BPF_FMT_S16_DFP: u32 = 0x50;
    /// Format an unsigned 32-bit decimal into a buffer.
    pub const BPF_FMT_U32_DEC: u32 = 0x51;
    /// ztimer-style periodic wakeup registration.
    pub const BPF_ZTIMER_NOW: u32 = 0x60;
    /// Pseudo-random number for hosted logic.
    pub const BPF_RANDOM: u32 = 0x70;
}

/// Signature of a registered helper.
///
/// Arguments arrive in `r1..r5`; the return value lands in `r0`. The
/// helper receives the container's [`MemoryMap`] so pointer arguments are
/// resolved through the same allow-list as VM loads and stores — helpers
/// cannot be tricked into touching memory the container could not.
///
/// Helpers are `Send` so a container (program, registry, memory map) can
/// be installed on one thread and executed on a worker thread of a
/// concurrent hosting runtime; host state captured by a helper closure
/// must therefore be shared through thread-safe handles (`Arc` +
/// locks/atomics), never `Rc`/`RefCell`.
pub type HelperFn<'h> =
    Box<dyn FnMut(&mut MemoryMap, [u64; 5]) -> Result<u64, VmError> + Send + 'h>;

struct Entry<'h> {
    id: u32,
    name: String,
    func: HelperFn<'h>,
}

/// Registry mapping helper ids to host closures.
///
/// Entries live in a dense slot vector with a side `id → slot` index:
/// [`HelperRegistry::call`] pays one hash lookup, while
/// [`HelperRegistry::call_slot`] — used by threaded programs whose call
/// sites were resolved once at install time via
/// [`crate::decode::DecodedProgram::bind_helpers`] — is a direct vector
/// index. Slots are stable for the lifetime of the registry: replacing a
/// helper reuses its slot and unregistering leaves a tombstone, so a
/// bound program can never reach a *different* helper than it bound.
///
/// # Examples
///
/// ```
/// use fc_rbpf::helpers::HelperRegistry;
/// let mut reg = HelperRegistry::new();
/// reg.register(0x20, "bpf_now", |_mem, _args| Ok(42));
/// assert!(reg.granted_ids().contains(&0x20));
/// ```
#[derive(Default)]
pub struct HelperRegistry<'h> {
    /// Dense slot storage; `None` marks an unregistered (tombstoned) slot.
    entries: Vec<Option<Entry<'h>>>,
    /// Helper id → slot index.
    index: HashMap<u32, u32>,
}

impl<'h> HelperRegistry<'h> {
    /// Creates an empty registry.
    pub fn new() -> Self {
        HelperRegistry {
            entries: Vec::new(),
            index: HashMap::new(),
        }
    }

    /// Registers (or replaces) a helper. Replacement reuses the
    /// original slot, keeping previously bound call sites valid.
    pub fn register<F>(&mut self, id: u32, name: &str, func: F)
    where
        F: FnMut(&mut MemoryMap, [u64; 5]) -> Result<u64, VmError> + Send + 'h,
    {
        let entry = Entry {
            id,
            name: name.to_owned(),
            func: Box::new(func),
        };
        match self.index.get(&id) {
            Some(&slot) => self.entries[slot as usize] = Some(entry),
            None => {
                self.index.insert(id, self.entries.len() as u32);
                self.entries.push(Some(entry));
            }
        }
    }

    /// Removes a helper, returning whether it existed. The slot is
    /// tombstoned (not reused), so stale slot bindings fault with
    /// [`VmError::UnknownHelper`] instead of reaching another helper.
    pub fn unregister(&mut self, id: u32) -> bool {
        match self.index.remove(&id) {
            Some(slot) => self.entries[slot as usize].take().is_some(),
            None => false,
        }
    }

    /// The set of helper ids this registry grants, in the shape the
    /// verifier consumes.
    pub fn granted_ids(&self) -> HashSet<u32> {
        self.index.keys().copied().collect()
    }

    /// Slot index of a helper id, for decode-time call-site resolution.
    pub fn slot_of(&self, id: u32) -> Option<u32> {
        self.index.get(&id).copied()
    }

    /// Name/id pairs for the assembler's `call <name>` resolution.
    pub fn name_table(&self) -> Vec<(String, u32)> {
        let mut v: Vec<_> = self
            .entries
            .iter()
            .flatten()
            .map(|e| (e.name.clone(), e.id))
            .collect();
        v.sort_by_key(|a| a.1);
        v
    }

    /// Number of registered helpers.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when no helpers are registered.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Invokes helper `id`.
    ///
    /// # Errors
    ///
    /// [`VmError::UnknownHelper`] when the id is not registered, or the
    /// helper's own fault.
    pub fn call(&mut self, id: u32, mem: &mut MemoryMap, args: [u64; 5]) -> Result<u64, VmError> {
        let slot = match self.index.get(&id) {
            Some(&slot) => slot as usize,
            None => return Err(VmError::UnknownHelper { id }),
        };
        match &mut self.entries[slot] {
            Some(e) => (e.func)(mem, args),
            None => Err(VmError::UnknownHelper { id }),
        }
    }

    /// Invokes the helper in `slot` directly, bypassing the id index —
    /// the hot path for call sites resolved at install time.
    ///
    /// # Errors
    ///
    /// [`VmError::UnknownHelper`] when the slot is out of range or
    /// tombstoned (`id` is only used for the error report), or the
    /// helper's own fault.
    pub fn call_slot(
        &mut self,
        slot: usize,
        id: u32,
        mem: &mut MemoryMap,
        args: [u64; 5],
    ) -> Result<u64, VmError> {
        match self.entries.get_mut(slot) {
            Some(Some(e)) => (e.func)(mem, args),
            _ => Err(VmError::UnknownHelper { id }),
        }
    }
}

impl std::fmt::Debug for HelperRegistry<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut names: Vec<_> = self
            .entries
            .iter()
            .flatten()
            .map(|e| e.name.as_str())
            .collect();
        names.sort_unstable();
        f.debug_struct("HelperRegistry")
            .field("helpers", &names)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_call() {
        let mut reg = HelperRegistry::new();
        reg.register(1, "double", |_m, args| Ok(args[0] * 2));
        let mut mem = MemoryMap::new();
        assert_eq!(reg.call(1, &mut mem, [21, 0, 0, 0, 0]).unwrap(), 42);
    }

    #[test]
    fn unknown_helper_errors() {
        let mut reg = HelperRegistry::new();
        let mut mem = MemoryMap::new();
        assert_eq!(
            reg.call(9, &mut mem, [0; 5]),
            Err(VmError::UnknownHelper { id: 9 })
        );
    }

    #[test]
    fn helpers_can_borrow_host_state() {
        let mut hits = 0u32;
        {
            let mut reg = HelperRegistry::new();
            reg.register(1, "count", |_m, _a| {
                hits += 1;
                Ok(0)
            });
            let mut mem = MemoryMap::new();
            reg.call(1, &mut mem, [0; 5]).unwrap();
            reg.call(1, &mut mem, [0; 5]).unwrap();
        }
        assert_eq!(hits, 2);
    }

    #[test]
    fn helper_pointer_args_go_through_allow_list() {
        let mut reg = HelperRegistry::new();
        reg.register(1, "read8", |mem, args| mem.load(args[0], 8));
        let mut mem = MemoryMap::new();
        mem.add_stack(64);
        assert!(reg
            .call(1, &mut mem, [crate::mem::STACK_VADDR, 0, 0, 0, 0])
            .is_ok());
        assert!(matches!(
            reg.call(1, &mut mem, [0xdead, 0, 0, 0, 0]),
            Err(VmError::InvalidMemoryAccess { .. })
        ));
    }

    #[test]
    fn name_table_sorted_by_id() {
        let mut reg = HelperRegistry::new();
        reg.register(5, "b", |_m, _a| Ok(0));
        reg.register(2, "a", |_m, _a| Ok(0));
        assert_eq!(
            reg.name_table(),
            vec![("a".to_owned(), 2), ("b".to_owned(), 5)]
        );
    }

    #[test]
    fn unregister_revokes() {
        let mut reg = HelperRegistry::new();
        reg.register(1, "x", |_m, _a| Ok(0));
        assert!(reg.unregister(1));
        assert!(!reg.unregister(1));
        assert!(reg.granted_ids().is_empty());
    }

    #[test]
    fn call_slot_matches_call() {
        let mut reg = HelperRegistry::new();
        reg.register(7, "seven", |_m, args| Ok(args[0] + 7));
        reg.register(9, "nine", |_m, args| Ok(args[0] + 9));
        let mut mem = MemoryMap::new();
        let slot = reg.slot_of(9).unwrap() as usize;
        assert_eq!(
            reg.call_slot(slot, 9, &mut mem, [1, 0, 0, 0, 0]).unwrap(),
            reg.call(9, &mut mem, [1, 0, 0, 0, 0]).unwrap(),
        );
    }

    #[test]
    fn replacement_reuses_slot_and_unregister_tombstones() {
        let mut reg = HelperRegistry::new();
        reg.register(1, "a", |_m, _a| Ok(10));
        let slot = reg.slot_of(1).unwrap();
        reg.register(1, "a2", |_m, _a| Ok(20));
        assert_eq!(reg.slot_of(1), Some(slot), "replacement keeps the slot");
        let mut mem = MemoryMap::new();
        assert_eq!(
            reg.call_slot(slot as usize, 1, &mut mem, [0; 5]).unwrap(),
            20
        );
        assert!(reg.unregister(1));
        // The tombstoned slot faults instead of reaching another helper.
        reg.register(2, "b", |_m, _a| Ok(30));
        assert_ne!(reg.slot_of(2), Some(slot), "tombstoned slot is not reused");
        assert_eq!(
            reg.call_slot(slot as usize, 1, &mut mem, [0; 5]),
            Err(VmError::UnknownHelper { id: 1 })
        );
    }
}
