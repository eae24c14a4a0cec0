//! The RBAC engine: tenants, organizations, environments, groups, users
//! and scoped role assignments.
//!
//! "Users can have different roles in different environments within an
//! organization which would govern their access privileges" (§II-B) — the
//! assignment key is therefore `(user, organization, environment)`.

use std::collections::HashMap;

use rand::Rng;

use hc_common::id::{EnvId, GroupId, OrgId, TenantId, UserId};

use crate::model::{Permission, Role};

/// Kind of environment.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EnvKind {
    /// Development/test.
    Development,
    /// Production (PHI-bearing).
    Production,
}

/// Errors from the RBAC engine.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RbacError {
    /// Referenced tenant does not exist.
    UnknownTenant(TenantId),
    /// Referenced organization does not exist.
    UnknownOrg(OrgId),
    /// Referenced environment does not exist.
    UnknownEnv(EnvId),
    /// Referenced user does not exist.
    UnknownUser(UserId),
    /// Referenced role name is not registered.
    UnknownRole(String),
    /// The entity belongs to a different tenant.
    TenantMismatch,
}

impl std::fmt::Display for RbacError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RbacError::UnknownTenant(t) => write!(f, "unknown tenant {t}"),
            RbacError::UnknownOrg(o) => write!(f, "unknown organization {o}"),
            RbacError::UnknownEnv(e) => write!(f, "unknown environment {e}"),
            RbacError::UnknownUser(u) => write!(f, "unknown user {u}"),
            RbacError::UnknownRole(r) => write!(f, "unknown role `{r}`"),
            RbacError::TenantMismatch => f.write_str("entity belongs to a different tenant"),
        }
    }
}

impl std::error::Error for RbacError {}

#[derive(Debug)]
struct TenantRecord {
    name: String,
}

#[derive(Debug)]
struct OrgRecord {
    tenant: TenantId,
    name: String,
}

#[derive(Debug)]
struct EnvRecord {
    org: OrgId,
    kind: EnvKind,
}

#[derive(Debug)]
struct GroupRecord {
    study: String,
}

#[derive(Debug)]
struct UserRecord {
    tenant: TenantId,
    username: String,
}

/// The RBAC engine.
#[derive(Debug, Default)]
pub struct RbacEngine {
    tenants: HashMap<TenantId, TenantRecord>,
    orgs: HashMap<OrgId, OrgRecord>,
    envs: HashMap<EnvId, EnvRecord>,
    groups: HashMap<GroupId, GroupRecord>,
    users: HashMap<UserId, UserRecord>,
    roles: HashMap<String, Role>,
    assignments: HashMap<(UserId, OrgId, EnvId), Vec<String>>,
}

impl RbacEngine {
    /// Creates an engine pre-loaded with the built-in roles.
    pub fn new() -> Self {
        let mut engine = RbacEngine::default();
        for role in [
            Role::admin(),
            Role::clinician(),
            Role::researcher(),
            Role::auditor(),
            Role::device(),
        ] {
            engine.roles.insert(role.name.clone(), role);
        }
        engine
    }

    /// Registers a tenant ("an account at an enterprise level", §II-B)
    /// with a default organization and a default development environment,
    /// as the paper's registration service prescribes.
    pub fn register_tenant<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        name: &str,
    ) -> (TenantId, OrgId, EnvId) {
        let tenant = TenantId::random(rng);
        self.tenants.insert(
            tenant,
            TenantRecord {
                name: name.to_owned(),
            },
        );
        let org = self
            .add_org(rng, tenant, "default")
            .expect("tenant just created");
        let env = self
            .add_env(rng, org, EnvKind::Development)
            .expect("org just created");
        (tenant, org, env)
    }

    /// Adds an organization under a tenant.
    ///
    /// # Errors
    ///
    /// Fails for an unknown tenant.
    pub fn add_org<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        tenant: TenantId,
        name: &str,
    ) -> Result<OrgId, RbacError> {
        if !self.tenants.contains_key(&tenant) {
            return Err(RbacError::UnknownTenant(tenant));
        }
        let org = OrgId::random(rng);
        self.orgs.insert(
            org,
            OrgRecord {
                tenant,
                name: name.to_owned(),
            },
        );
        Ok(org)
    }

    /// Adds an environment under an organization.
    ///
    /// # Errors
    ///
    /// Fails for an unknown organization.
    pub fn add_env<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        org: OrgId,
        kind: EnvKind,
    ) -> Result<EnvId, RbacError> {
        if !self.orgs.contains_key(&org) {
            return Err(RbacError::UnknownOrg(org));
        }
        let env = EnvId::random(rng);
        self.envs.insert(env, EnvRecord { org, kind });
        Ok(env)
    }

    /// Adds a group (healthcare study/program) under an organization.
    ///
    /// # Errors
    ///
    /// Fails for an unknown organization.
    pub fn add_group<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        org: OrgId,
        study: &str,
    ) -> Result<GroupId, RbacError> {
        if !self.orgs.contains_key(&org) {
            return Err(RbacError::UnknownOrg(org));
        }
        let group = GroupId::random(rng);
        self.groups.insert(
            group,
            GroupRecord {
                study: study.to_owned(),
            },
        );
        Ok(group)
    }

    /// Registers a user under a tenant.
    ///
    /// # Errors
    ///
    /// Fails for an unknown tenant.
    pub fn add_user<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        tenant: TenantId,
        username: &str,
    ) -> Result<UserId, RbacError> {
        if !self.tenants.contains_key(&tenant) {
            return Err(RbacError::UnknownTenant(tenant));
        }
        let user = UserId::random(rng);
        self.users.insert(
            user,
            UserRecord {
                tenant,
                username: username.to_owned(),
            },
        );
        Ok(user)
    }

    /// Registers a custom role.
    pub fn add_role(&mut self, role: Role) {
        self.roles.insert(role.name.clone(), role);
    }

    /// Assigns a role to a user in a specific (org, env) scope.
    ///
    /// # Errors
    ///
    /// Fails for unknown entities, unknown role names, or when the user,
    /// organization and environment do not belong to the same tenant.
    pub fn assign(
        &mut self,
        user: UserId,
        org: OrgId,
        env: EnvId,
        role_name: &str,
    ) -> Result<(), RbacError> {
        let user_rec = self.users.get(&user).ok_or(RbacError::UnknownUser(user))?;
        let org_rec = self.orgs.get(&org).ok_or(RbacError::UnknownOrg(org))?;
        let env_rec = self.envs.get(&env).ok_or(RbacError::UnknownEnv(env))?;
        if !self.roles.contains_key(role_name) {
            return Err(RbacError::UnknownRole(role_name.to_owned()));
        }
        if org_rec.tenant != user_rec.tenant || env_rec.org != org {
            return Err(RbacError::TenantMismatch);
        }
        let roles = self.assignments.entry((user, org, env)).or_default();
        if !roles.iter().any(|r| r == role_name) {
            roles.push(role_name.to_owned());
        }
        Ok(())
    }

    /// Removes a role assignment (no-op if absent).
    pub fn unassign(&mut self, user: UserId, org: OrgId, env: EnvId, role_name: &str) {
        if let Some(roles) = self.assignments.get_mut(&(user, org, env)) {
            roles.retain(|r| r != role_name);
        }
    }

    /// The core check: does `user` hold `permission` in `(org, env)`?
    pub fn check(&self, user: UserId, org: OrgId, env: EnvId, permission: Permission) -> bool {
        self.assignments
            .get(&(user, org, env))
            .map(|role_names| {
                role_names.iter().any(|name| {
                    self.roles
                        .get(name)
                        .map(|r| r.allows(permission))
                        .unwrap_or(false)
                })
            })
            .unwrap_or(false)
    }

    /// The username of a user.
    pub fn username_of(&self, user: UserId) -> Option<&str> {
        self.users.get(&user).map(|u| u.username.as_str())
    }

    /// The study name of a group.
    pub fn study_of(&self, group: GroupId) -> Option<&str> {
        self.groups.get(&group).map(|g| g.study.as_str())
    }

    /// Environment kind lookup.
    pub fn env_kind(&self, env: EnvId) -> Option<EnvKind> {
        self.envs.get(&env).map(|e| e.kind)
    }

    /// Tenant display name.
    pub fn tenant_name(&self, tenant: TenantId) -> Option<&str> {
        self.tenants.get(&tenant).map(|t| t.name.as_str())
    }

    /// Organization display name.
    pub fn org_name(&self, org: OrgId) -> Option<&str> {
        self.orgs.get(&org).map(|o| o.name.as_str())
    }

    /// A role definition by name.
    pub fn role(&self, name: &str) -> Option<&Role> {
        self.roles.get(name)
    }

    /// Every registered role, sorted by name for deterministic scans.
    pub fn roles(&self) -> Vec<&Role> {
        let mut all: Vec<&Role> = self.roles.values().collect();
        all.sort_by(|a, b| a.name.cmp(&b.name));
        all
    }

    /// Every role assignment as `(user, org, env, role names)`, sorted by
    /// scope for deterministic scans. This is the posture scanner's view of
    /// who holds what, and where.
    pub fn assignments(&self) -> Vec<(UserId, OrgId, EnvId, Vec<String>)> {
        let mut all: Vec<(UserId, OrgId, EnvId, Vec<String>)> = self
            .assignments
            .iter()
            .map(|(&(user, org, env), roles)| (user, org, env, roles.clone()))
            .collect();
        all.sort_by_key(|&(u, o, e, _)| (u, o, e));
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Action, ResourceKind};

    fn setup() -> (RbacEngine, rand::rngs::StdRng) {
        (RbacEngine::new(), hc_common::rng::seeded(30))
    }

    #[test]
    fn registration_creates_defaults() {
        let (mut rbac, mut rng) = setup();
        let (tenant, org, env) = rbac.register_tenant(&mut rng, "acme-health");
        assert_eq!(rbac.tenant_name(tenant), Some("acme-health"));
        assert_eq!(rbac.org_name(org), Some("default"));
        assert_eq!(rbac.env_kind(env), Some(EnvKind::Development));
    }

    #[test]
    fn assigned_role_grants_permission() {
        let (mut rbac, mut rng) = setup();
        let (tenant, org, env) = rbac.register_tenant(&mut rng, "t");
        let user = rbac.add_user(&mut rng, tenant, "alice").unwrap();
        rbac.assign(user, org, env, "clinician").unwrap();
        assert!(rbac.check(
            user,
            org,
            env,
            Permission::new(ResourceKind::PatientData, Action::Read)
        ));
        assert!(!rbac.check(
            user,
            org,
            env,
            Permission::new(ResourceKind::AuditLog, Action::Read)
        ));
    }

    #[test]
    fn roles_are_scoped_to_environment() {
        let (mut rbac, mut rng) = setup();
        let (tenant, org, dev) = rbac.register_tenant(&mut rng, "t");
        let prod = rbac.add_env(&mut rng, org, EnvKind::Production).unwrap();
        let user = rbac.add_user(&mut rng, tenant, "bob").unwrap();
        rbac.assign(user, org, dev, "admin").unwrap();
        let p = Permission::new(ResourceKind::Service, Action::Admin);
        assert!(rbac.check(user, org, dev, p));
        assert!(!rbac.check(user, org, prod, p), "no admin in prod");
    }

    #[test]
    fn cross_tenant_assignment_rejected() {
        let (mut rbac, mut rng) = setup();
        let (_t1, org1, env1) = rbac.register_tenant(&mut rng, "t1");
        let (t2, _org2, _env2) = rbac.register_tenant(&mut rng, "t2");
        let outsider = rbac.add_user(&mut rng, t2, "eve").unwrap();
        assert_eq!(
            rbac.assign(outsider, org1, env1, "admin"),
            Err(RbacError::TenantMismatch)
        );
    }

    #[test]
    fn env_must_belong_to_org() {
        let (mut rbac, mut rng) = setup();
        let (tenant, org1, _env1) = rbac.register_tenant(&mut rng, "t");
        let org2 = rbac.add_org(&mut rng, tenant, "second").unwrap();
        let env2 = rbac.add_env(&mut rng, org2, EnvKind::Development).unwrap();
        let user = rbac.add_user(&mut rng, tenant, "carol").unwrap();
        assert_eq!(
            rbac.assign(user, org1, env2, "admin"),
            Err(RbacError::TenantMismatch)
        );
    }

    #[test]
    fn unassign_revokes() {
        let (mut rbac, mut rng) = setup();
        let (tenant, org, env) = rbac.register_tenant(&mut rng, "t");
        let user = rbac.add_user(&mut rng, tenant, "dave").unwrap();
        rbac.assign(user, org, env, "auditor").unwrap();
        rbac.unassign(user, org, env, "auditor");
        assert!(!rbac.check(
            user,
            org,
            env,
            Permission::new(ResourceKind::AuditLog, Action::Read)
        ));
    }

    #[test]
    fn unknown_role_rejected() {
        let (mut rbac, mut rng) = setup();
        let (tenant, org, env) = rbac.register_tenant(&mut rng, "t");
        let user = rbac.add_user(&mut rng, tenant, "u").unwrap();
        assert_eq!(
            rbac.assign(user, org, env, "wizard"),
            Err(RbacError::UnknownRole("wizard".into()))
        );
    }

    #[test]
    fn groups_record_studies() {
        let (mut rbac, mut rng) = setup();
        let (_tenant, org, _env) = rbac.register_tenant(&mut rng, "t");
        let g = rbac.add_group(&mut rng, org, "diabetes-rwe").unwrap();
        assert_eq!(rbac.study_of(g), Some("diabetes-rwe"));
    }

    #[test]
    fn multiple_roles_union_permissions() {
        let (mut rbac, mut rng) = setup();
        let (tenant, org, env) = rbac.register_tenant(&mut rng, "t");
        let user = rbac.add_user(&mut rng, tenant, "u").unwrap();
        rbac.assign(user, org, env, "researcher").unwrap();
        rbac.assign(user, org, env, "auditor").unwrap();
        assert!(rbac.check(
            user,
            org,
            env,
            Permission::new(ResourceKind::Model, Action::Write)
        ));
        assert!(rbac.check(
            user,
            org,
            env,
            Permission::new(ResourceKind::AuditLog, Action::Read)
        ));
    }
}
