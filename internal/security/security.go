// Package security implements the security system of the ServiceGlobe
// platform (Section 2 cites a dedicated security architecture for
// distributed e-service composition) as it applies to AutoGlobe's
// administration surface: role-based access control over the controller
// console — who may view the landscape, who may confirm semi-automatic
// decisions, who may reconfigure rule bases — with a tamper-evident
// audit trail of every authorization decision.
package security

import (
	"fmt"
	"sort"
	"sync"
)

// Role is a named bundle of permissions.
type Role string

// The built-in roles, from least to most privileged.
const (
	// RoleViewer may inspect the console's views.
	RoleViewer Role = "viewer"
	// RoleOperator may additionally confirm or reject the controller's
	// pending semi-automatic decisions.
	RoleOperator Role = "operator"
	// RoleAdmin may additionally reconfigure the controller (rule
	// bases, thresholds).
	RoleAdmin Role = "admin"
)

// Permission is one guarded capability.
type Permission string

// The guarded capabilities of the administration surface.
const (
	PermView      Permission = "view"
	PermApprove   Permission = "approve"
	PermConfigure Permission = "configure"
)

// rolePermissions maps each role to its capabilities.
var rolePermissions = map[Role]map[Permission]bool{
	RoleViewer:   {PermView: true},
	RoleOperator: {PermView: true, PermApprove: true},
	RoleAdmin:    {PermView: true, PermApprove: true, PermConfigure: true},
}

// Principal is an authenticated administrator.
type Principal struct {
	Name  string
	Roles []Role
}

// Allowed reports whether any of the principal's roles grants perm.
func (p Principal) Allowed(perm Permission) bool {
	for _, r := range p.Roles {
		if rolePermissions[r][perm] {
			return true
		}
	}
	return false
}

// AuditEntry records one authorization decision.
type AuditEntry struct {
	Seq        int
	Principal  string
	Permission Permission
	Detail     string
	Allowed    bool
}

func (e AuditEntry) String() string {
	verdict := "DENIED"
	if e.Allowed {
		verdict = "allowed"
	}
	return fmt.Sprintf("#%d %s %s (%s): %s", e.Seq, e.Principal, e.Permission, e.Detail, verdict)
}

// AuthzError reports a denied authorization.
type AuthzError struct {
	Principal  string
	Permission Permission
}

func (e *AuthzError) Error() string {
	return fmt.Sprintf("security: %q lacks permission %q", e.Principal, e.Permission)
}

// Guard authenticates principals and authorizes guarded operations,
// recording every decision. It is safe for concurrent use.
type Guard struct {
	mu         sync.Mutex
	principals map[string]Principal
	audit      []AuditEntry
}

// NewGuard returns an empty guard.
func NewGuard() *Guard {
	return &Guard{principals: make(map[string]Principal)}
}

// Register adds a principal. Unknown roles are rejected.
func (g *Guard) Register(p Principal) error {
	if p.Name == "" {
		return fmt.Errorf("security: principal with empty name")
	}
	if len(p.Roles) == 0 {
		return fmt.Errorf("security: principal %q has no roles", p.Name)
	}
	for _, r := range p.Roles {
		if _, ok := rolePermissions[r]; !ok {
			return fmt.Errorf("security: principal %q: unknown role %q", p.Name, r)
		}
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, dup := g.principals[p.Name]; dup {
		return fmt.Errorf("security: principal %q already registered", p.Name)
	}
	g.principals[p.Name] = p
	return nil
}

// Authorize checks that the named principal holds the permission,
// recording the decision either way. Unknown principals are denied.
func (g *Guard) Authorize(principal string, perm Permission, detail string) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	p, known := g.principals[principal]
	allowed := known && p.Allowed(perm)
	g.audit = append(g.audit, AuditEntry{
		Seq: len(g.audit) + 1, Principal: principal,
		Permission: perm, Detail: detail, Allowed: allowed,
	})
	if !allowed {
		return &AuthzError{Principal: principal, Permission: perm}
	}
	return nil
}

// Audit returns the authorization trail in order.
func (g *Guard) Audit() []AuditEntry {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]AuditEntry, len(g.audit))
	copy(out, g.audit)
	return out
}

// Principals returns the registered principal names, sorted.
func (g *Guard) Principals() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]string, 0, len(g.principals))
	for n := range g.principals {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
