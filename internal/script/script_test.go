package script

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseSimpleCommands(t *testing.T) {
	s, err := Parse("mkdir -p /var/lib/ntp\nchown ntp /var/lib/ntp\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Nodes) != 2 {
		t.Fatalf("nodes = %d", len(s.Nodes))
	}
	c0 := s.Nodes[0].(*Command)
	if c0.Name != "mkdir" || len(c0.Args) != 2 || c0.Args[0] != "-p" || c0.Args[1] != "/var/lib/ntp" {
		t.Fatalf("c0 = %+v", c0)
	}
}

func TestParseQuotes(t *testing.T) {
	s, err := Parse(`adduser -g "NTP daemon" -s /sbin/nologin ntp` + "\n")
	if err != nil {
		t.Fatal(err)
	}
	c := s.Nodes[0].(*Command)
	if c.Args[1] != "NTP daemon" {
		t.Fatalf("quoted arg = %q", c.Args[1])
	}
	s2, err := Parse(`echo 'single quoted arg'`)
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.Nodes[0].(*Command).Args[0]; got != "single quoted arg" {
		t.Fatalf("arg = %q", got)
	}
}

func TestParseUnterminatedQuote(t *testing.T) {
	if _, err := Parse(`echo "oops`); !errors.Is(err, ErrSyntax) {
		t.Fatalf("err = %v", err)
	}
}

func TestParseRedirect(t *testing.T) {
	tests := []struct {
		src    string
		target string
		app    bool
	}{
		{"echo hello > /etc/motd", "/etc/motd", false},
		{"echo hello >> /etc/motd", "/etc/motd", true},
		{"echo x>/etc/f", "/etc/f", false},
	}
	for _, tt := range tests {
		s, err := Parse(tt.src)
		if err != nil {
			t.Fatalf("%q: %v", tt.src, err)
		}
		c := s.Nodes[0].(*Command)
		if c.RedirectTo != tt.target || c.Append != tt.app {
			t.Fatalf("%q: cmd = %+v", tt.src, c)
		}
	}
}

func TestParseRedirectErrors(t *testing.T) {
	for _, src := range []string{"echo >", "echo > f extra"} {
		if _, err := Parse(src); !errors.Is(err, ErrSyntax) {
			t.Errorf("%q: err = %v", src, err)
		}
	}
}

func TestParseComments(t *testing.T) {
	s, err := Parse("# header\nmkdir /x # trailing\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Nodes[0].(*Comment); !ok {
		t.Fatalf("node 0 = %T", s.Nodes[0])
	}
	c := s.Nodes[1].(*Command)
	if len(c.Args) != 1 {
		t.Fatalf("trailing comment not stripped: %+v", c)
	}
}

func TestParseIfElse(t *testing.T) {
	src := `if [ -f /etc/conf ]; then
	echo exists
else
	touch /etc/conf
fi
`
	s, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	n := s.Nodes[0].(*If)
	if n.Cond.Name != "[" || len(n.Then) != 1 || len(n.Else) != 1 {
		t.Fatalf("if = %+v", n)
	}
}

func TestParseNestedIf(t *testing.T) {
	src := `if true; then
if false; then
echo a
fi
fi
`
	s, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	outer := s.Nodes[0].(*If)
	if _, ok := outer.Then[0].(*If); !ok {
		t.Fatalf("inner = %T", outer.Then[0])
	}
}

func TestParseIfErrors(t *testing.T) {
	for _, src := range []string{
		"if true\necho x\nfi",   // missing '; then'
		"if true; then\necho x", // missing fi
		"fi",                    // stray fi
		"else",                  // stray else
		"then",                  // stray then
	} {
		if _, err := Parse(src); !errors.Is(err, ErrSyntax) {
			t.Errorf("%q: err = %v", src, err)
		}
	}
}

func TestRenderParseRoundtrip(t *testing.T) {
	src := `# setup ntp
addgroup -S ntp
adduser -S -G ntp -g "NTP daemon" -s /sbin/nologin ntp
if [ -f /etc/ntp.conf ]; then
	echo found
else
	touch /etc/ntp.conf
fi
mkdir -p /var/lib/ntp
`
	s1, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	r1 := s1.Render()
	s2, err := Parse(r1)
	if err != nil {
		t.Fatalf("reparse: %v\nrendered:\n%s", err, r1)
	}
	if r2 := s2.Render(); r1 != r2 {
		t.Fatalf("render not a fixpoint:\n%q\nvs\n%q", r1, r2)
	}
}

func TestRenderQuotesSpecialTokens(t *testing.T) {
	s := &Script{Nodes: []Node{&Command{Name: "adduser", Args: []string{"-g", "has space", "u"}}}}
	r := s.Render()
	if !strings.Contains(r, `"has space"`) {
		t.Fatalf("render = %q", r)
	}
	if _, err := Parse(r); err != nil {
		t.Fatalf("reparse: %v", err)
	}
}

func TestCommandsWalksBothBranches(t *testing.T) {
	src := `if true; then
adduser a
else
addgroup b
fi
`
	s := MustParse(src)
	cmds := s.Commands()
	// cond + adduser + addgroup
	if len(cmds) != 3 {
		t.Fatalf("commands = %d", len(cmds))
	}
}

func TestClassifyTable2Categories(t *testing.T) {
	tests := []struct {
		src  string
		want OpClass
	}{
		{"mkdir -p /var/lib/x", OpFilesystem},
		{"rm -rf /tmp/x", OpFilesystem},
		{"ln -s /usr/bin/x /usr/local/bin/x", OpFilesystem},
		{"chmod 755 /usr/bin/x", OpFilesystem},
		{"echo done", OpEmpty},
		{"exit 0", OpEmpty},
		{"grep root /etc/passwd", OpTextProcessing},
		{"sed s/a/b/ /etc/conf", OpTextProcessing},
		{"sed -i s/a/b/ /etc/conf", OpConfigChange},
		{"echo line > /etc/conf", OpConfigChange},
		{"frobnicate --hard", OpConfigChange}, // unknown command: worst case
		{"touch /var/run/x.pid", OpEmptyFile},
		{"adduser -S ntp", OpUserGroup},
		{"addgroup -S ntp", OpUserGroup},
		{"passwd -d root", OpUserGroup},
		{"add-shell /bin/bash", OpShellActivation},
	}
	for _, tt := range tests {
		s := MustParse(tt.src)
		set := Classify(s)
		if len(set) != 1 || !set[tt.want] {
			t.Errorf("%q: classes = %v, want {%v}", tt.src, set, tt.want)
		}
	}
}

func TestClassifyEmptyScript(t *testing.T) {
	for _, src := range []string{"", "# only a comment\n", "\n\n"} {
		set := Classify(MustParse(src))
		if len(set) != 1 || !set[OpEmpty] {
			t.Errorf("%q: classes = %v", src, set)
		}
	}
}

func TestClassifyMixed(t *testing.T) {
	src := `addgroup -S ntp
adduser -S -G ntp ntp
mkdir -p /var/lib/ntp
`
	set := Classify(MustParse(src))
	if !set[OpUserGroup] || !set[OpFilesystem] || len(set) != 2 {
		t.Fatalf("classes = %v", set)
	}
}

func TestClassifyConditionalBranches(t *testing.T) {
	// A config change hidden in an else branch must still be found.
	src := `if true; then
	echo ok
else
	sed -i s/a/b/ /etc/conf
fi
`
	set := Classify(MustParse(src))
	if !set[OpConfigChange] {
		t.Fatalf("classes = %v, want OpConfigChange found", set)
	}
}

func TestSafetyTables(t *testing.T) {
	// Mirrors Table 2's Safe and TSR columns exactly.
	tests := []struct {
		c         OpClass
		safe, tsr bool
	}{
		{OpFilesystem, true, true},
		{OpEmpty, true, true},
		{OpTextProcessing, true, true},
		{OpConfigChange, false, false},
		{OpEmptyFile, false, true},
		{OpUserGroup, false, true},
		{OpShellActivation, false, false},
	}
	for _, tt := range tests {
		if got := tt.c.SafeBeforeTSR(); got != tt.safe {
			t.Errorf("%v.SafeBeforeTSR = %v, want %v", tt.c, got, tt.safe)
		}
		if got := tt.c.SafeAfterTSR(); got != tt.tsr {
			t.Errorf("%v.SafeAfterTSR = %v, want %v", tt.c, got, tt.tsr)
		}
	}
}

func TestClassSetSafety(t *testing.T) {
	safe := ClassSet{OpFilesystem: true, OpEmpty: true}
	if !safe.SafeAfterTSR() {
		t.Fatal("safe set misclassified")
	}
	sanitizable := ClassSet{OpUserGroup: true, OpFilesystem: true}
	if !sanitizable.SafeAfterTSR() {
		t.Fatal("user/group set should be safe after TSR")
	}
	unsupported := ClassSet{OpShellActivation: true}
	if unsupported.SafeAfterTSR() {
		t.Fatal("shell activation must stay unsupported")
	}
}

func TestOpClassStrings(t *testing.T) {
	if OpUserGroup.String() != "User/Group creation" {
		t.Fatalf("got %q", OpUserGroup.String())
	}
	if OpClass(42).String() != "OpClass(42)" {
		t.Fatal("unknown class string")
	}
	if len(AllOpClasses()) != 7 {
		t.Fatal("Table 2 has 7 operation classes")
	}
}

// fakeSystem records interpreter effects for assertions.
type fakeSystem struct {
	files   map[string][]byte
	dirs    map[string]bool
	users   []User
	groups  []Group
	shells  []string
	passwd  map[string]string
	chmods  map[string]uint32
	chowns  map[string]string
	symlink map[string]string
	xattrs  map[string][]byte
}

func newFakeSystem() *fakeSystem {
	return &fakeSystem{
		files:   map[string][]byte{},
		dirs:    map[string]bool{},
		passwd:  map[string]string{},
		chmods:  map[string]uint32{},
		chowns:  map[string]string{},
		symlink: map[string]string{},
	}
}

func (f *fakeSystem) MkdirAll(p string, mode uint32) error { f.dirs[p] = true; return nil }
func (f *fakeSystem) Remove(p string, rec bool) error {
	if _, ok := f.files[p]; !ok && !f.dirs[p] {
		return fmt.Errorf("missing %q", p)
	}
	delete(f.files, p)
	delete(f.dirs, p)
	return nil
}
func (f *fakeSystem) Rename(o, n string) error {
	v, ok := f.files[o]
	if !ok {
		return fmt.Errorf("missing %q", o)
	}
	f.files[n] = v
	delete(f.files, o)
	return nil
}
func (f *fakeSystem) Copy(s, d string) error {
	v, ok := f.files[s]
	if !ok {
		return fmt.Errorf("missing %q", s)
	}
	f.files[d] = append([]byte(nil), v...)
	return nil
}
func (f *fakeSystem) Symlink(tgt, link string) error { f.symlink[link] = tgt; return nil }
func (f *fakeSystem) Chmod(p string, m uint32) error { f.chmods[p] = m; return nil }
func (f *fakeSystem) Chown(p, o string) error        { f.chowns[p] = o; return nil }
func (f *fakeSystem) Touch(p string) error {
	if _, ok := f.files[p]; !ok {
		f.files[p] = nil
	}
	return nil
}
func (f *fakeSystem) WriteFile(p string, d []byte, app bool) error {
	if app {
		f.files[p] = append(f.files[p], d...)
	} else {
		f.files[p] = append([]byte(nil), d...)
	}
	return nil
}
func (f *fakeSystem) ReadFile(p string) ([]byte, error) {
	v, ok := f.files[p]
	if !ok {
		return nil, fmt.Errorf("missing %q", p)
	}
	return v, nil
}
func (f *fakeSystem) Exists(p string) bool {
	_, ok := f.files[p]
	return ok || f.dirs[p]
}
func (f *fakeSystem) AddUser(u User) error          { f.users = append(f.users, u); return nil }
func (f *fakeSystem) AddGroup(g Group) error        { f.groups = append(f.groups, g); return nil }
func (f *fakeSystem) SetPassword(n, h string) error { f.passwd[n] = h; return nil }
func (f *fakeSystem) AddShell(p string) error       { f.shells = append(f.shells, p); return nil }
func (f *fakeSystem) SetXattr(p, n string, v []byte) error {
	if f.xattrs == nil {
		f.xattrs = map[string][]byte{}
	}
	f.xattrs[p+"\x00"+n] = append([]byte(nil), v...)
	return nil
}

func TestExecFilesystemOps(t *testing.T) {
	sys := newFakeSystem()
	src := `mkdir -p /var/lib/ntp
touch /var/lib/ntp/drift
chmod 600 /var/lib/ntp/drift
chown ntp /var/lib/ntp/drift
ln -s /usr/bin/real /usr/bin/alias
`
	if err := Exec(MustParse(src), sys); err != nil {
		t.Fatal(err)
	}
	if !sys.dirs["/var/lib/ntp"] {
		t.Fatal("mkdir missing")
	}
	if _, ok := sys.files["/var/lib/ntp/drift"]; !ok {
		t.Fatal("touch missing")
	}
	if sys.chmods["/var/lib/ntp/drift"] != 0o600 {
		t.Fatalf("chmod = %o", sys.chmods["/var/lib/ntp/drift"])
	}
	if sys.chowns["/var/lib/ntp/drift"] != "ntp" {
		t.Fatal("chown missing")
	}
	if sys.symlink["/usr/bin/alias"] != "/usr/bin/real" {
		t.Fatal("ln missing")
	}
}

func TestExecUserGroup(t *testing.T) {
	sys := newFakeSystem()
	src := `addgroup -S -g 123 ntp
adduser -S -G ntp -u 123 -g "NTP daemon" -s /sbin/nologin -h /var/empty ntp
`
	if err := Exec(MustParse(src), sys); err != nil {
		t.Fatal(err)
	}
	if len(sys.groups) != 1 || sys.groups[0].Name != "ntp" || sys.groups[0].GID != 123 || !sys.groups[0].System {
		t.Fatalf("groups = %+v", sys.groups)
	}
	u := sys.users[0]
	if u.Name != "ntp" || u.UID != 123 || u.Gecos != "NTP daemon" || u.Shell != "/sbin/nologin" || u.Home != "/var/empty" {
		t.Fatalf("user = %+v", u)
	}
}

func TestExecAddUserDefaults(t *testing.T) {
	sys := newFakeSystem()
	if err := Exec(MustParse("adduser bob"), sys); err != nil {
		t.Fatal(err)
	}
	u := sys.users[0]
	if u.Home != "/home/bob" || u.UID != -1 || u.Shell != "/sbin/nologin" || u.Gecos != "bob" {
		t.Fatalf("user = %+v", u)
	}
}

func TestExecPasswdEmpty(t *testing.T) {
	sys := newFakeSystem()
	if err := Exec(MustParse("passwd -d alice"), sys); err != nil {
		t.Fatal(err)
	}
	if h, ok := sys.passwd["alice"]; !ok || h != "" {
		t.Fatalf("passwd = %+v", sys.passwd)
	}
}

func TestExecAddShell(t *testing.T) {
	sys := newFakeSystem()
	if err := Exec(MustParse("add-shell /bin/bash"), sys); err != nil {
		t.Fatal(err)
	}
	if len(sys.shells) != 1 || sys.shells[0] != "/bin/bash" {
		t.Fatalf("shells = %v", sys.shells)
	}
}

func TestExecRedirect(t *testing.T) {
	sys := newFakeSystem()
	src := `echo session_key=abc > /etc/app.conf
echo more >> /etc/app.conf
`
	if err := Exec(MustParse(src), sys); err != nil {
		t.Fatal(err)
	}
	if got := string(sys.files["/etc/app.conf"]); got != "session_key=abc\nmore\n" {
		t.Fatalf("content = %q", got)
	}
}

func TestExecSedInPlace(t *testing.T) {
	sys := newFakeSystem()
	sys.files["/etc/conf"] = []byte("mode=old\n")
	if err := Exec(MustParse("sed -i s/old/new/ /etc/conf"), sys); err != nil {
		t.Fatal(err)
	}
	if got := string(sys.files["/etc/conf"]); got != "mode=new\n" {
		t.Fatalf("content = %q", got)
	}
}

func TestExecSedReadOnly(t *testing.T) {
	sys := newFakeSystem()
	sys.files["/etc/conf"] = []byte("mode=old\n")
	if err := Exec(MustParse("sed s/old/new/ /etc/conf"), sys); err != nil {
		t.Fatal(err)
	}
	if got := string(sys.files["/etc/conf"]); got != "mode=old\n" {
		t.Fatalf("read-only sed modified file: %q", got)
	}
}

func TestExecConditionTaken(t *testing.T) {
	sys := newFakeSystem()
	sys.files["/etc/conf"] = []byte("x")
	src := `if [ -f /etc/conf ]; then
	touch /tmp/yes
else
	touch /tmp/no
fi
`
	if err := Exec(MustParse(src), sys); err != nil {
		t.Fatal(err)
	}
	if _, ok := sys.files["/tmp/yes"]; !ok {
		t.Fatal("then branch not taken")
	}
	if _, ok := sys.files["/tmp/no"]; ok {
		t.Fatal("else branch wrongly taken")
	}
}

func TestExecConditionNegated(t *testing.T) {
	sys := newFakeSystem()
	src := `if [ ! -f /etc/conf ]; then
	touch /etc/conf
fi
`
	if err := Exec(MustParse(src), sys); err != nil {
		t.Fatal(err)
	}
	if _, ok := sys.files["/etc/conf"]; !ok {
		t.Fatal("negated condition not taken")
	}
}

func TestExecExitStopsScript(t *testing.T) {
	sys := newFakeSystem()
	src := `exit 0
touch /tmp/after
`
	if err := Exec(MustParse(src), sys); err != nil {
		t.Fatal(err)
	}
	if _, ok := sys.files["/tmp/after"]; ok {
		t.Fatal("commands after exit were executed")
	}
}

func TestExecExitInsideIfStopsScript(t *testing.T) {
	sys := newFakeSystem()
	src := `if true; then
	exit 0
fi
touch /tmp/after
`
	if err := Exec(MustParse(src), sys); err != nil {
		t.Fatal(err)
	}
	if _, ok := sys.files["/tmp/after"]; ok {
		t.Fatal("exit inside if did not stop script")
	}
}

func TestExecUnknownCommandFails(t *testing.T) {
	if err := Exec(MustParse("frobnicate"), newFakeSystem()); !errors.Is(err, ErrExec) {
		t.Fatalf("err = %v", err)
	}
}

func TestExecRmForceIgnoresMissing(t *testing.T) {
	sys := newFakeSystem()
	if err := Exec(MustParse("rm -f /missing"), sys); err != nil {
		t.Fatal(err)
	}
	if err := Exec(MustParse("rm /missing"), sys); !errors.Is(err, ErrExec) {
		t.Fatalf("plain rm of missing file: err = %v", err)
	}
}

func TestParseAddUserErrors(t *testing.T) {
	for _, args := range [][]string{
		{},                 // no name
		{"-u", "abc", "x"}, // bad uid
		{"-h"},             // missing value
		{"a", "b"},         // two names
		{"--weird", "x"},   // unknown flag
	} {
		if _, err := ParseAddUser(args); err == nil {
			t.Errorf("args %v: want error", args)
		}
	}
}

func TestParseAddGroupErrors(t *testing.T) {
	for _, args := range [][]string{{}, {"-g", "x", "g"}, {"a", "b"}, {"-z", "g"}} {
		if _, err := ParseAddGroup(args); err == nil {
			t.Errorf("args %v: want error", args)
		}
	}
}

func TestParsePasswdForms(t *testing.T) {
	name, hash, err := ParsePasswd([]string{"-d", "alice"})
	if err != nil || name != "alice" || hash != "" {
		t.Fatalf("got %q %q %v", name, hash, err)
	}
	name, hash, err = ParsePasswd([]string{"-H", "$6$abc", "bob"})
	if err != nil || name != "bob" || hash != "$6$abc" {
		t.Fatalf("got %q %q %v", name, hash, err)
	}
	if _, _, err := ParsePasswd([]string{"alice"}); err == nil {
		t.Fatal("want error")
	}
}

func TestRoundtripProperty(t *testing.T) {
	// Any script built from safe generator tokens survives
	// render -> parse -> render unchanged.
	cmds := []string{
		"mkdir -p /var/lib/app",
		"touch /var/run/app.pid",
		"adduser -S app",
		"addgroup -S app",
		"echo done",
		"rm -rf /tmp/app",
	}
	f := func(picks []uint8) bool {
		var src strings.Builder
		for _, p := range picks {
			src.WriteString(cmds[int(p)%len(cmds)])
			src.WriteByte('\n')
		}
		s1, err := Parse(src.String())
		if err != nil {
			return false
		}
		r1 := s1.Render()
		s2, err := Parse(r1)
		if err != nil {
			return false
		}
		return s2.Render() == r1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestExecSetfattr(t *testing.T) {
	sys := newFakeSystem()
	if err := Exec(MustParse("setfattr -n security.ima -v deadbeef /etc/passwd"), sys); err != nil {
		t.Fatal(err)
	}
	got := sys.xattrs["/etc/passwd\x00security.ima"]
	if len(got) != 4 || got[0] != 0xde || got[3] != 0xef {
		t.Fatalf("xattr = %x", got)
	}
	// setfattr classifies as a safe filesystem operation.
	set := Classify(MustParse("setfattr -n security.ima -v 00 /etc/passwd"))
	if len(set) != 1 || !set[OpFilesystem] {
		t.Fatalf("classes = %v", set)
	}
}

func TestParseSetfattrErrors(t *testing.T) {
	cases := [][]string{
		{"-n", "a"},                         // no value, no path
		{"-n", "a", "-v", "zz", "/p"},       // bad hex
		{"-v", "00", "/p"},                  // missing name
		{"-n", "a", "-v", "00"},             // missing path
		{"-n", "a", "-v", "00", "/p", "/q"}, // two paths
		{"-z", "x"},                         // unknown flag
	}
	for _, args := range cases {
		if _, _, _, err := ParseSetfattr(args); err == nil {
			t.Errorf("args %v: want error", args)
		}
	}
}

// Robustness: Parse never panics on arbitrary input, and when it
// succeeds the rendered form reparses to the same rendering.
func TestParseRobustnessProperty(t *testing.T) {
	f := func(src string) bool {
		s, err := Parse(src)
		if err != nil {
			return true // rejection is fine; panics are not
		}
		r1 := s.Render()
		s2, err := Parse(r1)
		if err != nil {
			return false
		}
		return s2.Render() == r1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
