package cases

import "threatraptor/internal/audit"

// The three multi-step intrusive attacks the paper's authors performed on
// their testbed, built on the Cyber Kill Chain framework and CVE.

// passwordCrack is "Password Cracking After Shellshock Penetration": the
// attacker penetrates via Shellshock, fetches the C2 address from image
// EXIF metadata on a cloud service, downloads a password cracker from the
// C2, and runs it against the shadow file.
func passwordCrack() *Case {
	const report = `The attacker penetrated into the victim host by exploiting the Shellshock vulnerability CVE-2014-6271. After the penetration, the compromised process /usr/sbin/apache2 downloaded the image /var/www/stego.jpg from 104.16.18.35. The C2 address was encoded in the image metadata. Then, the attacker used /usr/bin/wget to download the password cracker /tmp/john.zip from 162.125.6.6. The attacker leveraged /usr/bin/unzip to extract the cracking tool /tmp/libfoo.so from /tmp/john.zip. Finally, the attacker executed the tool there. /tmp/libfoo.so read the shadow file /etc/shadow and wrote the cracked credentials to /tmp/passwords.txt.`

	apache := audit.Proc{PID: 6001, Exe: "/usr/sbin/apache2", User: "www-data", Group: "www-data"}
	wget := audit.Proc{PID: 6002, Exe: "/usr/bin/wget", User: "www-data", Group: "www-data"}
	unzip := audit.Proc{PID: 6003, Exe: "/usr/bin/unzip", User: "www-data", Group: "www-data"}
	libfoo := audit.Proc{PID: 6004, Exe: "/tmp/libfoo.so", User: "www-data", Group: "www-data"}
	bash := audit.Proc{PID: 6000, Exe: "/bin/bash", User: "www-data", Group: "www-data"}

	return &Case{
		ID:     "password_crack",
		Name:   "Password Cracking After Shellshock Penetration",
		Report: report,
		Entities: []string{
			"CVE-2014-6271", "/usr/sbin/apache2", "/var/www/stego.jpg",
			"104.16.18.35", "/usr/bin/wget", "/tmp/john.zip", "162.125.6.6",
			"/usr/bin/unzip", "/tmp/libfoo.so", "/etc/shadow",
			"/tmp/passwords.txt",
		},
		Relations: []Relation{
			{"/usr/sbin/apache2", "download", "/var/www/stego.jpg"},
			{"/usr/sbin/apache2", "download", "104.16.18.35"},
			{"/usr/bin/wget", "download", "/tmp/john.zip"},
			{"/usr/bin/wget", "download", "162.125.6.6"},
			{"/usr/bin/unzip", "extract", "/tmp/libfoo.so"},
			{"/usr/bin/unzip", "extract", "/tmp/john.zip"},
			{"/tmp/libfoo.so", "read", "/etc/shadow"},
			{"/tmp/libfoo.so", "write", "/tmp/passwords.txt"},
		},
		BenignActions: 1200,
		Seed:          101,
		Attack: func(sim *audit.Simulator) {
			// Stage 1: EXIF beacon fetch.
			sim.Connect(apache, "10.0.0.3", 42100, "104.16.18.35", 443, "tcp")
			sim.Receive(apache, "10.0.0.3", 42100, "104.16.18.35", 443, "tcp", 90_000)
			sim.WriteFile(apache, "/var/www/stego.jpg", 90_000)
			sim.Advance(3_000_000)
			// Stage 2: cracker download.
			sim.Connect(wget, "10.0.0.3", 42101, "162.125.6.6", 80, "tcp")
			sim.Receive(wget, "10.0.0.3", 42101, "162.125.6.6", 80, "tcp", 400_000)
			sim.WriteFile(wget, "/tmp/john.zip", 400_000)
			sim.Advance(3_000_000)
			// Stage 3: unpack; the unzip READ of john.zip is the behavior
			// the synthesized "write" pattern cannot retrieve (the paper's
			// excessive-pattern anecdote).
			sim.ReadFile(unzip, "/tmp/john.zip", 400_000)
			sim.WriteFile(unzip, "/tmp/libfoo.so", 350_000)
			sim.Advance(3_000_000)
			// Stage 4: run the cracker (execve not described as a two-IOC
			// relation in the report).
			sim.StartProcess(bash, libfoo)
			sim.ExecuteFile(libfoo, "/tmp/libfoo.so")
			sim.ReadFile(libfoo, "/etc/shadow", 6_000)
			sim.WriteFile(libfoo, "/tmp/passwords.txt", 2_000)
		},
	}
}

// dataLeak is the paper's Figure 2 running example, "Data Leakage After
// Shellshock Penetration". The report is the exact Figure 2 text.
func dataLeak() *Case {
	const report = `After the lateral movement stage, the attacker attempts to steal valuable assets from the host. This stage mainly involves the behaviors of local and remote file system scanning activities, copying and compressing of important files, and transferring the files to its C2 host. The details of the data leakage attack are as follows. As a first step, the attacker used /bin/tar to read user credentials from /etc/passwd. It wrote the gathered information to a file /tmp/upload.tar. Then, the attacker leveraged /bin/bzip2 utility to compress the tar file. /bin/bzip2 read from /tmp/upload.tar and wrote to /tmp/upload.tar.bz2. After compression, the attacker used Gnu Privacy Guard (GnuPG) tool to encrypt the zipped file, which corresponds to the launched process /usr/bin/gpg reading from /tmp/upload.tar.bz2. /usr/bin/gpg then wrote the sensitive information to /tmp/upload. Finally, the attacker leveraged the curl utility (/usr/bin/curl) to read the data from /tmp/upload. He leaked the gathered sensitive information back to the attacker C2 host by using /usr/bin/curl to connect to 192.168.29.128.`

	find := audit.Proc{PID: 7000, Exe: "/usr/bin/find", User: "root", Group: "root"}
	tar := audit.Proc{PID: 7001, Exe: "/bin/tar", User: "root", Group: "root", CMD: "tar cf /tmp/upload.tar /etc/passwd"}
	bzip := audit.Proc{PID: 7002, Exe: "/bin/bzip2", User: "root", Group: "root"}
	gpg := audit.Proc{PID: 7003, Exe: "/usr/bin/gpg", User: "root", Group: "root"}
	curl := audit.Proc{PID: 7004, Exe: "/usr/bin/curl", User: "root", Group: "root"}

	return &Case{
		ID:     "data_leak",
		Name:   "Data Leakage After Shellshock Penetration",
		Report: report,
		Entities: []string{
			"/bin/tar", "/etc/passwd", "/tmp/upload.tar", "/bin/bzip2",
			"/tmp/upload.tar.bz2", "/usr/bin/gpg", "/tmp/upload",
			"/usr/bin/curl", "192.168.29.128",
		},
		Relations: []Relation{
			{"/bin/tar", "read", "/etc/passwd"},
			{"/bin/tar", "write", "/tmp/upload.tar"},
			{"/bin/bzip2", "read", "/tmp/upload.tar"},
			{"/bin/bzip2", "write", "/tmp/upload.tar.bz2"},
			{"/usr/bin/gpg", "read", "/tmp/upload.tar.bz2"},
			{"/usr/bin/gpg", "write", "/tmp/upload"},
			{"/usr/bin/curl", "read", "/tmp/upload"},
			{"/usr/bin/curl", "connect", "192.168.29.128"},
		},
		BenignActions: 1500,
		Seed:          102,
		Attack: func(sim *audit.Simulator) {
			// File-system scanning: attack behavior mentioned only in the
			// narrative preamble, so the synthesized query misses it (the
			// paper reports 6/8 recall here for the same reason).
			sim.ReadFile(find, "/home/admin", 2_000)
			sim.ReadFile(find, "/home/admin/documents", 2_000)
			sim.Advance(2_000_000)
			sim.ReadFile(tar, "/etc/passwd", 3_000)
			sim.WriteFile(tar, "/tmp/upload.tar", 3_000)
			sim.Advance(2_000_000)
			sim.ReadFile(bzip, "/tmp/upload.tar", 3_000)
			sim.WriteFile(bzip, "/tmp/upload.tar.bz2", 2_000)
			sim.Advance(2_000_000)
			sim.ReadFile(gpg, "/tmp/upload.tar.bz2", 2_000)
			sim.WriteFile(gpg, "/tmp/upload", 2_200)
			sim.Advance(2_000_000)
			sim.ReadFile(curl, "/tmp/upload", 2_200)
			sim.Connect(curl, "10.0.0.3", 45000, "192.168.29.128", 443, "tcp")
			sim.Send(curl, "10.0.0.3", 45000, "192.168.29.128", 443, "tcp", 2_200)
		},
	}
}

// vpnFilter is the VPNFilter IoT malware case: stage 1 fetches the stage 2
// address from image EXIF data, downloads stage 2, and stage 2 opens a
// direct C2 connection.
func vpnFilter() *Case {
	const report = `The attacker seeks to maintain a direct connection to the victim host from the C2 server. After the initial penetration, the attacker used /bin/busybox to download the VPNFilter stage 1 malware /tmp/vpnfilter from the C2 server 94.185.80.82. /tmp/vpnfilter connected to the public image repository 217.12.202.40. It downloaded the image /tmp/photo.jpg from 217.12.202.40. The address of the stage 2 server was encoded in the image metadata. /tmp/vpnfilter then downloaded the stage 2 malware /tmp/vpnfilter2 from the stage 2 server 91.121.109.209. Finally, /tmp/vpnfilter started the stage 2 process /tmp/vpnfilter2. /tmp/vpnfilter2 connected to the C2 server 94.185.80.82.`

	busybox := audit.Proc{PID: 8000, Exe: "/bin/busybox", User: "root", Group: "root"}
	stage1 := audit.Proc{PID: 8001, Exe: "/tmp/vpnfilter", User: "root", Group: "root"}
	stage2 := audit.Proc{PID: 8002, Exe: "/tmp/vpnfilter2", User: "root", Group: "root"}

	return &Case{
		ID:     "vpnfilter",
		Name:   "VPNFilter",
		Report: report,
		Entities: []string{
			"/bin/busybox", "/tmp/vpnfilter", "94.185.80.82",
			"217.12.202.40", "/tmp/photo.jpg", "/tmp/vpnfilter2",
			"91.121.109.209",
		},
		Relations: []Relation{
			{"/bin/busybox", "download", "/tmp/vpnfilter"},
			{"/bin/busybox", "download", "94.185.80.82"},
			{"/tmp/vpnfilter", "connect", "217.12.202.40"},
			{"/tmp/vpnfilter", "download", "/tmp/photo.jpg"},
			{"/tmp/vpnfilter", "download", "217.12.202.40"},
			{"/tmp/vpnfilter", "download", "/tmp/vpnfilter2"},
			{"/tmp/vpnfilter", "download", "91.121.109.209"},
			{"/tmp/vpnfilter", "start", "/tmp/vpnfilter2"},
			{"/tmp/vpnfilter2", "connect", "94.185.80.82"},
		},
		BenignActions: 1200,
		Seed:          103,
		Attack: func(sim *audit.Simulator) {
			sim.Connect(busybox, "10.0.0.4", 42200, "94.185.80.82", 80, "tcp")
			sim.Receive(busybox, "10.0.0.4", 42200, "94.185.80.82", 80, "tcp", 300_000)
			sim.WriteFile(busybox, "/tmp/vpnfilter", 300_000)
			sim.Advance(3_000_000)
			sim.ExecuteFile(stage1, "/tmp/vpnfilter")
			sim.Connect(stage1, "10.0.0.4", 42201, "217.12.202.40", 443, "tcp")
			sim.Receive(stage1, "10.0.0.4", 42201, "217.12.202.40", 443, "tcp", 120_000)
			sim.WriteFile(stage1, "/tmp/photo.jpg", 120_000)
			sim.Advance(3_000_000)
			sim.Connect(stage1, "10.0.0.4", 42202, "91.121.109.209", 443, "tcp")
			sim.Receive(stage1, "10.0.0.4", 42202, "91.121.109.209", 443, "tcp", 500_000)
			sim.WriteFile(stage1, "/tmp/vpnfilter2", 500_000)
			sim.Advance(3_000_000)
			sim.StartProcess(stage1, stage2)
			sim.ExecuteFile(stage2, "/tmp/vpnfilter2")
			// Long-lived C2 heartbeat connections: many events with >1s
			// gaps so data reduction keeps them distinct (the paper
			// reports 178 TP for this case).
			for i := 0; i < 160; i++ {
				sim.Connect(stage2, "10.0.0.4", 42300+i, "94.185.80.82", 443, "tcp")
				sim.Advance(1_500_000)
			}
		},
	}
}

// lateralMovement is a two-host fleet scenario (not part of the paper's
// Table IV benchmark — see Extras): an attacker on host-a steals an SSH
// key, pivots to host-b over an SSH session, and exfiltrates a database
// from host-b. The two halves of the pivot meet at a single NetConn
// entity (the 5-tuple is host-agnostic), which is what lets a fleet-wide
// hunt join the connect on host-a with the receive on host-b.
func lateralMovement() *Case {
	const report = `The attacker first compromised workstation host-a and used /bin/bash to read the administrator SSH private key /home/admin/.ssh/id_rsa. Using the stolen key, the attacker launched /usr/bin/ssh to connect to the database server 10.0.0.12. On the server, /usr/sbin/sshd accepted the session and started an interactive /bin/bash shell for the attacker. The shell read /etc/passwd to enumerate accounts. Finally, the attacker used /usr/bin/scp to read the payroll database /var/db/payroll.db and connect to the external drop host 203.0.113.50, leaking the database contents.`

	bash := audit.Proc{PID: 9000, Exe: "/bin/bash", User: "admin", Group: "staff", Host: "host-a"}
	ssh := audit.Proc{PID: 9001, Exe: "/usr/bin/ssh", User: "admin", Group: "staff", CMD: "ssh admin@10.0.0.12", Host: "host-a"}
	sshd := audit.Proc{PID: 9100, Exe: "/usr/sbin/sshd", User: "root", Group: "root", Host: "host-b"}
	shell := audit.Proc{PID: 9101, Exe: "/bin/bash", User: "admin", Group: "staff", Host: "host-b"}
	scp := audit.Proc{PID: 9102, Exe: "/usr/bin/scp", User: "admin", Group: "staff", Host: "host-b"}

	return &Case{
		ID:     "lateral_movement",
		Name:   "Cross-Host Lateral Movement and Database Exfiltration",
		Report: report,
		Entities: []string{
			"/bin/bash", "/home/admin/.ssh/id_rsa", "/usr/bin/ssh",
			"10.0.0.12", "/usr/sbin/sshd", "/etc/passwd",
			"/usr/bin/scp", "/var/db/payroll.db", "203.0.113.50",
		},
		Relations: []Relation{
			{"/bin/bash", "read", "/home/admin/.ssh/id_rsa"},
			{"/usr/bin/ssh", "connect", "10.0.0.12"},
			{"/usr/sbin/sshd", "start", "/bin/bash"},
			{"/bin/bash", "read", "/etc/passwd"},
			{"/usr/bin/scp", "read", "/var/db/payroll.db"},
			{"/usr/bin/scp", "connect", "203.0.113.50"},
		},
		BenignActions: 1000,
		BenignHosts:   []string{"host-a", "host-b"},
		Seed:          109,
		Attack: func(sim *audit.Simulator) {
			// Host-a: credential theft and pivot. The connect (host-a)
			// and receive (host-b) share one 5-tuple, so they resolve to
			// the same NetConn entity across hosts.
			sim.ReadFile(bash, "/home/admin/.ssh/id_rsa", 3_200)
			sim.Advance(2_000_000)
			sim.Connect(ssh, "10.0.0.11", 47200, "10.0.0.12", 22, "tcp")
			sim.Send(ssh, "10.0.0.11", 47200, "10.0.0.12", 22, "tcp", 4_096)
			sim.Advance(500_000)
			// Host-b: session accept, interactive shell, exfiltration.
			sim.Receive(sshd, "10.0.0.11", 47200, "10.0.0.12", 22, "tcp", 4_096)
			sim.StartProcess(sshd, shell)
			sim.Advance(2_000_000)
			sim.ReadFile(shell, "/etc/passwd", 3_000)
			sim.Advance(2_000_000)
			sim.ReadFile(scp, "/var/db/payroll.db", 48_000)
			sim.Connect(scp, "10.0.0.12", 51310, "203.0.113.50", 443, "tcp")
			sim.Send(scp, "10.0.0.12", 51310, "203.0.113.50", 443, "tcp", 48_000)
		},
	}
}
